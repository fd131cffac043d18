package main

import (
	"errors"
	"math"
	"testing"

	"interedge/internal/netsim"
	"interedge/internal/services/ipfwd"
	"interedge/internal/services/null"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// TestWorkloadsShort runs every workload briefly, untraced and traced,
// and checks that each reported metric is present with its unit and that
// every attempted packet was settled exactly once.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w, options{seed: 7, seconds: 2, traced: traced, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, name := range want {
				m, ok := res.metrics.vals[name]
				if !ok || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, present %v", w.name, traced, name, m, ok)
				}
			}
			if res.attempted == 0 {
				t.Errorf("%s traced=%v: no packets attempted", w.name, traced)
			}
			// Every attempt ends delivered or failed, never both; a
			// duplicate is a failure beyond the attempted packets.
			if res.delivered+res.failed-res.failures["duplicate"] != res.attempted {
				t.Errorf("%s traced=%v: %d delivered + %d failed (%v) != %d attempted",
					w.name, traced, res.delivered, res.failed, res.failures, res.attempted)
			}
			if w.listed && !res.correct {
				t.Errorf("%s traced=%v: failures %v", w.name, traced, res.failures)
			}
		}
	}
}

// testFlow builds a sink with one generator and one flow to dst whose
// send function is send.
func testFlow(dst wire.Addr, send func(s *sink, p []byte) error) (*sink, *generator) {
	r := newRig(false)
	g := r.addGen(1, 64)
	f := &flow{dst: dst}
	f.conn.Store(5)
	f.send = func(p []byte) error { return send(r.sink, p) }
	g.addFlow(f)
	g.active = []*flow{f}
	return r.sink, g
}

func TestCheckerFlagsFailures(t *testing.T) {
	a, b := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
	cases := []struct {
		name string
		send func(s *sink, p []byte) error
		// counter reads the tally that must reach 1; delivered is the
		// packet's expected outcome.
		counter   func(c *counters) uint64
		delivered bool
	}{
		{"delivered", func(s *sink, p []byte) error { s.deliver(a, 5, p); return nil },
			func(c *counters) uint64 { return c.delivered.Load() }, true},
		{"misdelivered", func(s *sink, p []byte) error { s.deliver(b, 5, p); return nil },
			func(c *counters) uint64 { return c.misdelivered.Load() }, false},
		{"wrong-connection", func(s *sink, p []byte) error { s.deliver(a, 6, p); return nil },
			func(c *counters) uint64 { return c.misdelivered.Load() }, false},
		{"dropped", func(*sink, []byte) error { return nil },
			func(c *counters) uint64 { return c.timeouts.Load() }, false},
		{"corrupted", func(s *sink, p []byte) error {
			q := append([]byte(nil), p...)
			q[len(q)-1] ^= 1
			s.deliver(a, 5, q)
			return nil
		}, func(c *counters) uint64 { return c.corrupt.Load() }, false},
		{"duplicated", func(s *sink, p []byte) error { s.deliver(a, 5, p); s.deliver(a, 5, p); return nil },
			func(c *counters) uint64 { return c.duplicates.Load() }, true},
		{"send-error", func(*sink, []byte) error { return errors.New("refused") },
			func(c *counters) uint64 { return c.sendErrors.Load() }, false},
	}
	for _, tc := range cases {
		s, g := testFlow(a, tc.send)
		g.emit(g.pick(), nowNs())
		g.sweep(math.MaxInt64) // every packet still in flight has timed out
		if got := tc.counter(&s.c); got != 1 {
			t.Errorf("%s: counter = %d, want 1 (counters %v)", tc.name, got, s.c.breakdown())
		}
		if d := s.c.delivered.Load() == 1; d != tc.delivered {
			t.Errorf("%s: delivered = %v, want %v", tc.name, d, tc.delivered)
		}
		if tc.delivered == (s.c.failed() > 0) && tc.name != "duplicated" {
			t.Errorf("%s: failed = %d with delivered = %v", tc.name, s.c.failed(), tc.delivered)
		}
		if g.tr.inflight.Load() != 0 {
			t.Errorf("%s: %d packets still in flight", tc.name, g.tr.inflight.Load())
		}
	}
}

type startingModule struct{ sn.Module }

func (startingModule) Start(sn.Env) error { return nil }

type plainTransport struct{ netsim.Transport }

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	fabric, err := netsim.NewNetwork().Attach(wire.MustAddr("fd00::1"))
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	udp, err := netsim.NewUDPTransport(wire.MustAddr("fd00::2"), "127.0.0.1:0", netsim.NewUDPDirectory())
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	for _, inner := range []netsim.Transport{fabric, udp} {
		w, err := wrapTransport(tr, inner)
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		if _, ok := w.(netsim.BatchSender); !ok {
			t.Errorf("%T wrapper is not a netsim.BatchSender", inner)
		}
		if _, ok := w.(telemetry.Registrable); !ok {
			t.Errorf("%T wrapper is not a telemetry.Registrable", inner)
		}
	}
	if _, err := wrapTransport(tr, plainTransport{fabric}); err == nil {
		t.Error("wrapping a transport without BatchSender should fail, not hide it")
	}

	var res any = &tracedResolver{t: tr}
	if _, ok := res.(ipfwd.AsyncResolver); !ok {
		t.Error("traced resolver is not an ipfwd.AsyncResolver")
	}

	if _, err := wrapModule(tr, null.New()); err != nil {
		t.Errorf("wrap null: %v", err)
	}
	if _, err := wrapModule(tr, startingModule{null.New()}); err == nil {
		t.Error("wrapping a module with Start should fail, not drop the Start")
	}
}

func TestHistogramResolution(t *testing.T) {
	for v := uint64(1); v < 1<<40; v = v*3/2 + 1 {
		mid := bucketMid(bucketOf(v))
		if math.Abs(mid-float64(v)) > 0.005*float64(v)+1 {
			t.Fatalf("value %d lands in bucket with midpoint %.0f", v, mid)
		}
	}
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(int64(i) * 1000)
	}
	if p50 := h.quantileUs(0.5); math.Abs(p50-500) > 5 {
		t.Errorf("p50 = %.1f us, want 500", p50)
	}
	h.fails.Add(20) // 2% failed: p99 falls among the failures
	if p99 := h.quantileUs(0.99); p99 != float64(failTimeout)/1e3 {
		t.Errorf("p99 with 2%% failures = %.1f us, want the timeout", p99)
	}
}
