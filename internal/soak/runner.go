package soak

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/clock"
	"interedge/internal/edomain"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/netsim"
	"interedge/internal/services/echo"
	"interedge/internal/services/ipfwd"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Result is one finished soak run: the stats the gates judged, the
// per-gate verdicts, and the full per-node registry snapshots (taken
// just before teardown) for dump-on-breach diagnostics.
type Result struct {
	Stats      RunStats
	Gates      []GateResult
	Registries map[string]telemetry.Snapshot

	passed bool
}

// Passed reports whether every SLO gate held.
func (r *Result) Passed() bool { return r.passed }

// FailureDiff renders the breached gates, one line per SLO.
func (r *Result) FailureDiff() string { return DiffFailed(r.Gates) }

// GateSummary renders every gate verdict, passed and failed.
func (r *Result) GateSummary() string {
	var b strings.Builder
	for _, g := range r.Gates {
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// DumpRegistries renders every node's registry in the text exposition
// format, labeled by node, for attaching to a failure report.
func (r *Result) DumpRegistries() string {
	names := make([]string, 0, len(r.Registries))
	for n := range r.Registries {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "--- registry %s ---\n", n)
		_ = r.Registries[n].WriteProm(&b, "node", n)
	}
	return b.String()
}

// RunOption customizes one Run.
type RunOption func(*runOpts)

type runOpts struct {
	capture *WireCapture
	logf    func(format string, args ...any)
}

// WithCapture records sealed wire traffic into c during the run (fuzz
// corpus harvesting).
func WithCapture(c *WireCapture) RunOption {
	return func(o *runOpts) { o.capture = c }
}

// WithLogf receives per-run progress diagnostics (nil discards).
func WithLogf(f func(format string, args ...any)) RunOption {
	return func(o *runOpts) { o.logf = f }
}

// runOutcome is what survives a scenario's teardown: the tallies and
// snapshots the gates judge. Everything topology-scoped dies inside
// runScenario so the resource-leak gates measure a collectable world.
type runOutcome struct {
	regs   map[string]telemetry.Snapshot
	totals *Totals

	sent, delivered, bad      uint64
	flakySent, flakyDelivered uint64
	simSeconds                float64
}

// Run executes one scenario under the given substrate seed and evaluates
// its SLO gates. The run is deterministic in the fault schedule (seeded
// substrate draws on the injected clock); service timings are real and
// feed the latency SLOs.
func Run(sc Scenario, seed int64, opts ...RunOption) (*Result, error) {
	sc = sc.withDefaults()
	var ro runOpts
	for _, o := range opts {
		o(&ro)
	}
	if ro.logf == nil {
		ro.logf = func(string, ...any) {}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc
	goroBase := runtime.NumGoroutine()
	wallStart := time.Now()

	out, err := runScenario(sc, seed, &ro)
	if err != nil {
		return nil, err
	}

	// The topology is torn down and unreferenced; let the leak gates
	// measure a settled process. Two GC cycles release sync.Pool pages.
	goroEnd := runtime.NumGoroutine()
	for wait := 0; wait < 200 && goroEnd > goroBase; wait++ {
		time.Sleep(5 * time.Millisecond)
		goroEnd = runtime.NumGoroutine()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)

	stats := RunStats{
		Scenario:       sc.Name,
		Seed:           seed,
		SimSeconds:     out.simSeconds,
		WallSeconds:    time.Since(wallStart).Seconds(),
		Sent:           out.sent,
		Delivered:      out.delivered,
		Bad:            out.bad,
		FlakySent:      out.flakySent,
		FlakyDelivered: out.flakyDelivered,
		GoroutineBase:  goroBase,
		GoroutineEnd:   goroEnd,
		HeapBase:       heapBase,
		HeapEnd:        ms.HeapAlloc,
		Totals:         out.totals,
	}
	gates := sc.Gates
	if len(gates) == 0 {
		gates = BaselineGates()
	}
	results, ok := EvalGates(gates, &stats)
	ro.logf("soak %s seed=%d: sim=%.0fs wall=%.2fs sent=%d delivered=%d gates=%d pass=%v",
		sc.Name, seed, stats.SimSeconds, stats.WallSeconds, stats.Sent, stats.Delivered, len(results), ok)
	return &Result{Stats: stats, Gates: results, Registries: out.regs, passed: ok}, nil
}

// runScenario assembles the world, drives the load and fault schedules
// under the injected clock, snapshots telemetry, and tears everything
// down before returning.
func runScenario(sc Scenario, seed int64, ro *runOpts) (*runOutcome, error) {
	clk := clock.NewManual(time.Unix(0, 0))
	fabricReg := telemetry.NewRegistry()
	net := netsim.NewNetwork(
		netsim.WithSeed(seed),
		netsim.WithClock(clk),
		netsim.WithTelemetry(fabricReg),
	)

	w := &World{Net: net, Clock: clk}
	topoOpts := []lab.Option{
		lab.WithNetwork(net),
		lab.WithClock(clk),
		lab.WithSNConfig(func(cfg *sn.Config) {
			cfg.KeepaliveInterval = sc.Keepalive
			cfg.DeadAfter = sc.DeadAfter
			cfg.HandshakeTimeout = time.Second
			cfg.HandshakeRetries = 8
		}),
	}
	if ro.capture != nil {
		topoOpts = append(topoOpts, lab.WithTransportWrap(ro.capture.Tap))
	}
	topo := lab.New(topoOpts...)
	w.Topo = topo
	defer topo.Close()
	// The global lookup service's instruments go into the fabric registry:
	// it is a singleton, and registering it per node would multiply its
	// counts in the summed Totals the gates read.
	topo.Global.RegisterTelemetry(fabricReg)

	setup := func(node *sn.SN, ed *lab.Edomain) error {
		if err := node.Register(echo.New(),
			sn.WithWorkers(2), sn.WithQueueDepth(1024)); err != nil {
			return err
		}
		// Each node forwards through its own SN-tier resolution cache:
		// cold resolutions become async fills with packet requeue, and
		// address-record churn invalidates both the cache entry and the
		// decision-cache rules toward the moved host.
		if err := node.Register(ipfwd.New(topo.NewNodeResolver(ed, node), topo.Fabric),
			sn.WithWorkers(2), sn.WithQueueDepth(1024)); err != nil {
			return err
		}
		if sc.Flaky != nil {
			fm := &flakyModule{}
			w.flaky = append(w.flaky, fm)
			if err := node.Register(fm,
				sn.WithBreaker(sc.Flaky.BreakerThreshold, sc.Flaky.BreakerCooldown)); err != nil {
				return err
			}
		}
		return nil
	}
	for e := 0; e < sc.Edomains; e++ {
		ed, err := topo.AddEdomain(edomain.ID(fmt.Sprintf("ed%d", e)), sc.SNsPerEdomain, setup)
		if err != nil {
			return nil, fmt.Errorf("soak: build edomain %d: %w", e, err)
		}
		w.Eds = append(w.Eds, ed)
	}
	if err := topo.Mesh(); err != nil {
		return nil, fmt.Errorf("soak: mesh: %w", err)
	}
	if sc.RingPlaced {
		for _, ed := range w.Eds {
			w.Places = append(w.Places, topo.NewPlacement(ed))
		}
	}
	type churnTarget struct {
		h        *host.Host
		firstHop wire.Addr
	}
	var churnTargets []churnTarget
	for e, ed := range w.Eds {
		var hosts []*host.Host
		for hIdx := 0; hIdx < sc.HostsPerEdomain; hIdx++ {
			var h *host.Host
			var fh wire.Addr
			var err error
			if sc.RingPlaced {
				h, err = topo.NewPlacedHost(w.Places[e])
				if err == nil {
					fh, _ = w.Places[e].PlacedOn(h.Addr())
				}
			} else {
				h, err = topo.NewHost(ed, hIdx%sc.SNsPerEdomain)
				fh = ed.SNs[hIdx%sc.SNsPerEdomain].Addr()
			}
			if err != nil {
				return nil, fmt.Errorf("soak: host %d/%d: %w", e, hIdx, err)
			}
			hosts = append(hosts, h)
			churnTargets = append(churnTargets, churnTarget{h, fh})
		}
		w.Hosts = append(w.Hosts, hosts)
	}

	flows, byTag, err := buildFlows(sc, w)
	if err != nil {
		return nil, err
	}
	var strayBad atomic.Uint64
	handler := onServiceHandler(byTag, &strayBad)
	for _, hosts := range w.Hosts {
		for _, h := range hosts {
			h.OnService(wire.SvcIPFwd, handler)
		}
	}
	var wg sync.WaitGroup
	for _, f := range flows {
		wg.Add(1)
		go func(f *flow) {
			defer wg.Done()
			f.drainConn(byTag, &strayBad)
		}(f)
	}

	// Topology and pipes are established on clean links; only now do
	// the scenario's baseline faults and scheduled events take effect.
	net.SetDefaultFaults(sc.DefaultFaults)
	var cancelEvents func()
	if sc.Events != nil {
		_, cancelEvents = net.Schedule(sc.Events(w))
		defer cancelEvents()
	}

	// Main loop: offer this tick's load, advance the injected clock one
	// quantum, and yield briefly so handshakes, timers, and delayed
	// deliveries run in real goroutine time between advances.
	ticks := int(sc.SimDuration / sc.Tick)
	tickSec := sc.Tick.Seconds()
	buf := make([]byte, payloadLen)
	churnIdx := 0
	nextChurn := time.Duration(-1)
	if sc.Churn != nil {
		nextChurn = sc.Churn.Start
	}
	for tick := 0; tick < ticks; tick++ {
		simT := time.Duration(tick) * sc.Tick
		// Registration churn: one host re-signs and re-registers its
		// address record per interval. The record is unchanged, but the
		// write still publishes a fresh snapshot, fans out to every
		// watching cache tier, and invalidates the decision-cache rules
		// steering at the host.
		for nextChurn >= 0 && simT >= nextChurn {
			if simT >= sc.Churn.Start+sc.Churn.Dur {
				nextChurn = -1
				break
			}
			ct := churnTargets[churnIdx%len(churnTargets)]
			churnIdx++
			sns := []wire.Addr{ct.firstHop}
			rec := lookup.AddrRecord{Addr: ct.h.Addr(), Owner: ct.h.Identity().PublicKey(), SNs: sns}
			sig := lookup.SignAddrRecord(ct.h.Identity().Signing, ct.h.Addr(), sns)
			if err := topo.Global.RegisterAddress(rec, sig); err != nil {
				return nil, fmt.Errorf("soak: churn re-registration: %w", err)
			}
			nextChurn += sc.Churn.Interval
		}
		rate := sc.rateAt(simT)
		offered := 0
		for _, f := range flows {
			var r float64
			switch f.class {
			case classCross:
				r = sc.CrossPPS
			case classFlaky:
				r = sc.Flaky.PPS
			default:
				r = rate
			}
			f.carry += r * tickSec
			if n := int(f.carry); n > 0 {
				f.carry -= float64(n)
				f.offer(n, buf)
				offered += n
			}
		}
		clk.Advance(sc.Tick)
		// Yield real time in proportion to the load just injected so
		// slow-path workers and delivery goroutines keep pace with the
		// injected clock instead of being starved by this loop.
		runtime.Gosched()
		pause := tickYieldBase + time.Duration(offered)*tickYieldPerPkt
		if pause > 0 {
			time.Sleep(pause)
		}
		settle(net)
	}
	for i := 0; i < sc.DrainTicks; i++ {
		clk.Advance(sc.Tick)
		time.Sleep(20 * time.Microsecond)
		settle(net)
	}
	time.Sleep(20 * time.Millisecond)

	// Snapshot every registry before teardown: gates read these, and
	// they are the dump attached to a breach.
	out := &runOutcome{
		regs:       map[string]telemetry.Snapshot{"fabric": fabricReg.Snapshot()},
		totals:     newTotals(),
		simSeconds: (time.Duration(ticks+sc.DrainTicks) * sc.Tick).Seconds(),
	}
	out.totals.Add(out.regs["fabric"])
	for _, ed := range w.Eds {
		for si, node := range ed.SNs {
			name := fmt.Sprintf("%s/sn%d", ed.ID, si)
			snap := node.Telemetry().Snapshot()
			out.regs[name] = snap
			out.totals.Add(snap)
		}
	}

	if cancelEvents != nil {
		cancelEvents()
	}
	topo.Close()
	wg.Wait()
	// Flush straggler delayed-delivery timers so their goroutines exit
	// before the leak gates measure.
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}

	for _, f := range flows {
		if f.class.reliable() {
			out.sent += f.sent.Load()
			out.delivered += f.delivered.Load()
			out.bad += f.bad.Load()
		} else {
			out.flakySent += f.sent.Load()
			out.flakyDelivered += f.delivered.Load()
		}
	}
	out.bad += strayBad.Load()
	return out, nil
}

// Settling: the tick loop advances the injected clock only once the
// fabric has gone quiet, so a keepalive probe, handshake or forward that a
// tick set off is sent and handled by its receiver before the next tick
// can age the pipe it keeps alive. Without it the loop outran the
// node goroutines on multi-core schedulers and pipes were declared dead
// for lack of CPU, not of traffic.
const (
	settleQuiet = 200 * time.Microsecond
	settleMax   = 20 * time.Millisecond
)

// settle blocks until every datagram the fabric delivered has been handled
// (Network.Pending) and the fabric's traffic counters have not moved for
// settleQuiet, or for settleMax in all. Each poll yields the processor so
// the goroutines the last tick woke run first.
func settle(net *netsim.Network) {
	start := time.Now()
	last := fabricActivity(net)
	quietSince := start
	for {
		runtime.Gosched()
		now := time.Now()
		if now.Sub(start) >= settleMax {
			return
		}
		if cur := fabricActivity(net); cur != last || net.Pending() != 0 {
			last, quietSince = cur, now
		} else if now.Sub(quietSince) >= settleQuiet {
			return
		}
	}
}

// fabricActivity sums the fabric's monotonic per-datagram counters: it
// moves whenever a node sends or the fabric delivers or drops anything.
func fabricActivity(net *netsim.Network) uint64 {
	s := net.Snapshot()
	return s.Sent + s.Delivered + s.DroppedLoss + s.DroppedQueue + s.DroppedDead
}

// buildFlows opens every conn of the scenario's traffic mix and indexes
// every flow by payload tag: deliveries are credited by tag wherever
// they surface (own conn, colliding conn, or OnService handler).
func buildFlows(sc Scenario, w *World) ([]*flow, map[uint8]*flow, error) {
	var flows []*flow
	byTag := make(map[uint8]*flow)
	nextTag := uint8(0)
	alloc := func(class flowClass, c *host.Conn, svcData []byte) (*flow, error) {
		if int(nextTag) >= 255 {
			return nil, fmt.Errorf("soak: too many flows (max 255)")
		}
		f := &flow{class: class, tag: nextTag, conn: c, svcData: svcData}
		nextTag++
		flows = append(flows, f)
		byTag[f.tag] = f
		return f, nil
	}

	for e, hosts := range w.Hosts {
		for hIdx, h := range hosts {
			c, err := h.NewConn(wire.SvcEcho, host.WithBuffer(4096))
			if err != nil {
				return nil, nil, fmt.Errorf("soak: echo conn: %w", err)
			}
			if _, err := alloc(classEcho, c, nil); err != nil {
				return nil, nil, err
			}

			dst := hosts[(hIdx+1)%len(hosts)]
			c, err = h.NewConn(wire.SvcIPFwd, host.WithBuffer(4096))
			if err != nil {
				return nil, nil, fmt.Errorf("soak: ipfwd conn: %w", err)
			}
			if _, err := alloc(classIPFwd, c, ipfwd.DestData(dst.Addr())); err != nil {
				return nil, nil, err
			}

			if sc.Flaky != nil {
				c, err = h.NewConn(wire.SvcNull, host.WithBuffer(4096))
				if err != nil {
					return nil, nil, fmt.Errorf("soak: flaky conn: %w", err)
				}
				if _, err := alloc(classFlaky, c, nil); err != nil {
					return nil, nil, err
				}
			}
		}
		if sc.CrossPPS > 0 {
			src := hosts[0]
			dst := w.Hosts[(e+1)%len(w.Hosts)][0]
			c, err := src.NewConn(wire.SvcIPFwd, host.WithBuffer(4096))
			if err != nil {
				return nil, nil, fmt.Errorf("soak: cross conn: %w", err)
			}
			if _, err := alloc(classCross, c, ipfwd.DestData(dst.Addr())); err != nil {
				return nil, nil, err
			}
		}
	}
	return flows, byTag, nil
}
