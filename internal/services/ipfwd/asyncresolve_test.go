package ipfwd

import (
	"crypto/ed25519"
	"sync"
	"testing"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/lookup"
	"interedge/internal/lookup/rescache"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// fakeEnv is a minimal sn.Env that records Inject calls, so the
// cold-resolution contract can be tested against the module alone: the
// dispatcher-facing HandlePacket must return without ever waiting on
// the directory.
type fakeEnv struct {
	local wire.Addr

	mu       sync.Mutex
	injected []sn.Packet
}

func (e *fakeEnv) LocalAddr() wire.Addr                          { return e.local }
func (e *fakeEnv) Now() time.Time                                { return time.Unix(0, 0) }
func (e *fakeEnv) After(time.Duration) <-chan time.Time          { return nil }
func (e *fakeEnv) Send(wire.Addr, *wire.ILPHeader, []byte) error { return nil }
func (e *fakeEnv) Inject(src wire.Addr, hdr wire.ILPHeader, payload []byte) {
	e.mu.Lock()
	e.injected = append(e.injected, sn.Packet{Src: src, Hdr: hdr, Payload: payload})
	e.mu.Unlock()
}
func (e *fakeEnv) Connect(wire.Addr) error                           { return nil }
func (e *fakeEnv) PeerIdentity(wire.Addr) (ed25519.PublicKey, bool)  { return nil, false }
func (e *fakeEnv) AddRule(wire.FlowKey, cache.Action)                {}
func (e *fakeEnv) InvalidateRule(wire.FlowKey)                       {}
func (e *fakeEnv) RuleHitCount(wire.FlowKey) (uint64, bool)          { return 0, false }
func (e *fakeEnv) RuleRecentlyUsed(wire.FlowKey, time.Duration) bool { return false }
func (e *fakeEnv) Config(string) ([]byte, bool)                      { return nil, false }
func (e *fakeEnv) SetConfig(string, []byte)                          {}
func (e *fakeEnv) Checkpoint(string, []byte)                         {}
func (e *fakeEnv) Restore(string) ([]byte, bool)                     { return nil, false }
func (e *fakeEnv) Logf(string, ...any)                               {}

func (e *fakeEnv) injectCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.injected)
}

// gateBackend blocks every resolution until released — a directory
// that is arbitrarily slow.
type gateBackend struct {
	inner   rescache.Resolver
	release chan struct{}
}

func (g *gateBackend) ResolveAddress(addr wire.Addr) (lookup.AddrRecord, error) {
	<-g.release
	return g.inner.ResolveAddress(addr)
}

// TestColdResolutionNeverBlocks is the acceptance test for the async
// miss path: with the directory wedged, HandlePacket on a cold
// destination returns immediately (parking the packet on the fill);
// once the fill completes the packet is re-injected, and the requeued
// packet decides from the now-warm cache.
func TestColdResolutionNeverBlocks(t *testing.T) {
	svc := lookup.New()
	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	local := wire.MustAddr("fd00::1")
	dst := wire.MustAddr("fd00::beef")
	sns := []wire.Addr{local}
	rec := lookup.AddrRecord{Addr: dst, Owner: owner.Public, SNs: sns}
	if err := svc.RegisterAddress(rec, lookup.SignAddrRecord(owner, dst, sns)); err != nil {
		t.Fatal(err)
	}

	gate := &gateBackend{inner: svc, release: make(chan struct{})}
	rc := rescache.New(rescache.Config{Backend: gate, Watch: svc})
	defer rc.Close()
	mod := New(rc, nil)
	env := &fakeEnv{local: local}

	pkt := &sn.Packet{
		Src:     wire.MustAddr("fd00::c0"),
		Hdr:     wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 7, Data: DestData(dst)},
		Payload: []byte("parked"),
	}

	// Cold miss with the directory wedged: the call must come back at
	// once with an empty decision. (If it blocked on the backend this
	// test would hang, not fail.)
	returned := make(chan struct{})
	var dec sn.Decision
	go func() {
		var herr error
		dec, herr = mod.HandlePacket(env, pkt)
		if herr != nil {
			t.Errorf("cold HandlePacket: %v", herr)
		}
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("HandlePacket blocked on a cold resolution")
	}
	if len(dec.Forwards) != 0 || len(dec.Rules) != 0 {
		t.Fatalf("cold decision not empty: %+v", dec)
	}
	if env.injectCount() != 0 {
		t.Fatal("packet re-injected before the fill completed")
	}

	// The parked copy must not alias the dispatcher's buffers.
	pkt.Payload[0] = 'X'
	pkt.Hdr.Data[0] = 0xff

	// Release the directory: the fill completes and the packet comes
	// back through Inject with its original bytes.
	close(gate.release)
	deadline := time.Now().Add(5 * time.Second)
	for env.injectCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("packet never re-injected after the fill")
		}
		time.Sleep(time.Millisecond)
	}
	env.mu.Lock()
	re := env.injected[0]
	env.mu.Unlock()
	if re.Src != pkt.Src || string(re.Payload) != "parked" {
		t.Fatalf("re-injected packet mangled: src=%s payload=%q", re.Src, re.Payload)
	}
	got, err := DecodeDest(re.Hdr.Data)
	if err != nil || got != dst {
		t.Fatalf("re-injected dest = %v, %v; want %s", got, err, dst)
	}

	// The requeued packet decides from the warm cache: last-hop
	// delivery straight to the host, with a fast-path rule.
	dec, err = mod.HandlePacket(env, &re)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Forwards) != 1 || dec.Forwards[0].Dst != dst {
		t.Fatalf("warm decision forwards = %+v, want delivery to %s", dec.Forwards, dst)
	}
	if len(dec.Rules) != 1 {
		t.Fatalf("warm decision installed %d rules, want 1", len(dec.Rules))
	}

	// An unknown destination surfaces the negative-cache error on
	// requeue instead of looping forever.
	ghost := wire.MustAddr("fd00::dead")
	gpkt := &sn.Packet{
		Src: pkt.Src,
		Hdr: wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 8, Data: DestData(ghost)},
	}
	if _, err := mod.HandlePacket(env, gpkt); err != nil {
		t.Fatalf("cold ghost HandlePacket: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for env.injectCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("ghost packet never re-injected")
		}
		time.Sleep(time.Millisecond)
	}
	env.mu.Lock()
	gre := env.injected[1]
	env.mu.Unlock()
	if _, err := mod.HandlePacket(env, &gre); err == nil {
		t.Fatal("requeued ghost packet did not surface the unknown-address error")
	}
}

// TestSNBoundRuleMarkedForDestination pins that a forward toward the
// destination's SN is cached For the destination host: when the host's
// record moves, the SN's resolution cache invalidates the rule with
// InvalidateDest(host), so the flow is decided again instead of being
// held on the path to the SN the host left.
func TestSNBoundRuleMarkedForDestination(t *testing.T) {
	svc := lookup.New()
	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	local := wire.MustAddr("fd00::1")
	dstSN := wire.MustAddr("fd00::2")
	dst := wire.MustAddr("fd00::beef")
	sns := []wire.Addr{dstSN}
	rec := lookup.AddrRecord{Addr: dst, Owner: owner.Public, SNs: sns}
	if err := svc.RegisterAddress(rec, lookup.SignAddrRecord(owner, dst, sns)); err != nil {
		t.Fatal(err)
	}
	mod := New(svc, nil)
	pkt := &sn.Packet{
		Src:     wire.MustAddr("fd00::c0"),
		Hdr:     wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 7, Data: DestData(dst)},
		Payload: []byte("x"),
	}
	dec, err := mod.HandlePacket(&fakeEnv{local: local}, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Rules) != 1 {
		t.Fatalf("decision caches %d rules, want 1", len(dec.Rules))
	}
	a := dec.Rules[0].Action
	if len(a.Forward) != 1 || a.Forward[0] != dstSN || a.For != dst {
		t.Fatalf("rule action %+v, want forward to %s for %s", a, dstSN, dst)
	}

	c := cache.New(8)
	c.Add(dec.Rules[0].Key, a)
	c.InvalidateDest(dst)
	if _, ok := c.Lookup(dec.Rules[0].Key); ok {
		t.Fatal("rule survived InvalidateDest of its destination")
	}
}
