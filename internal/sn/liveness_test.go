package sn

import (
	"crypto/ed25519"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// fwdModule installs a cache rule forwarding the flow to a fixed next hop
// and forwards the triggering packet there too.
type fwdModule struct {
	dst wire.Addr
}

func (fwdModule) Service() wire.ServiceID { return wire.SvcEcho }
func (fwdModule) Name() string            { return "fwd" }
func (fwdModule) Version() string         { return "1" }
func (m fwdModule) HandlePacket(env Env, pkt *Packet) (Decision, error) {
	return Decision{
		Rules:    []Rule{{Key: pkt.Key(), Action: cache.Action{Forward: []wire.Addr{m.dst}}}},
		Forwards: []Forward{{Dst: m.dst}},
	}, nil
}

func TestPeerDownInvalidatesDecisionCache(t *testing.T) {
	net := netsim.NewNetwork()
	var downs atomic.Int32
	node := newTestSN(t, net, "fd00::5", func(c *Config) {
		c.KeepaliveInterval = 20 * time.Millisecond
		c.DisableAutoConnect = true // no redial: the peer stays gone
		c.OnPeerDown = func(wire.Addr, ed25519.PublicKey) { downs.Add(1) }
	})
	if err := node.Register(&echoModule{installRule: true}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 7}, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	cl.await(t)
	deadline := time.Now().Add(2 * time.Second)
	for node.Cache().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("module never installed a cache rule")
		}
		time.Sleep(time.Millisecond)
	}

	// Sever the client. The SN's keepalives go unanswered, dead-peer
	// detection fires, and every decision for flows through the client
	// must leave the cache.
	net.Partition(cl.addr, node.Addr())
	deadline = time.Now().Add(2 * time.Second)
	for node.Cache().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cache still holds %d entries after peer death", node.Cache().Len())
		}
		time.Sleep(time.Millisecond)
	}
	if got := node.Counters().PeersLost; got != 1 {
		t.Fatalf("PeersLost = %d, want 1", got)
	}
	if downs.Load() != 1 {
		t.Fatalf("chained OnPeerDown fired %d times, want 1", downs.Load())
	}
}

func TestForwardRequeuesWhileEstablishing(t *testing.T) {
	net := netsim.NewNetwork()
	next := newClient(t, net, "fd00::2") // next hop with no pipe yet
	node := newTestSN(t, net, "fd00::5")
	if err := node.Register(fwdModule{dst: next.addr}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	// No pipe SN→next exists: the forward must be requeued, a handshake
	// performed, and the packet flushed — not dropped.
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte("through")); err != nil {
		t.Fatal(err)
	}
	got := next.await(t)
	if string(got.payload) != "through" {
		t.Fatalf("payload %q, want %q", got.payload, "through")
	}
	ctr := node.Counters()
	if ctr.Requeued == 0 {
		t.Fatal("Requeued counter is zero")
	}
	if ctr.RequeueDrops != 0 {
		t.Fatalf("RequeueDrops = %d, want 0", ctr.RequeueDrops)
	}
	if ctr.Forwarded == 0 {
		t.Fatal("Forwarded counter is zero")
	}
}

func TestRequeueDepthBoundsMemory(t *testing.T) {
	net := netsim.NewNetwork()
	dead := wire.MustAddr("fd00::dead") // never attached: handshake must fail
	node := newTestSN(t, net, "fd00::5", func(c *Config) {
		c.RequeueDepth = 2
		c.HandshakeTimeout = 20 * time.Millisecond
		c.HandshakeRetries = 3
	})
	if err := node.Register(fwdModule{dst: dead}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for node.Counters().RequeueDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never overflowed: %+v", node.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	if got := node.Counters().Requeued; got > 64 {
		t.Fatalf("Requeued = %d, exceeds sends", got)
	}
}

// TestFailedConnectInvalidatesRulesToDest pins the recovery path for a
// decision cached after its next hop died: the forward finds no pipe, the
// redial fails, and the rule steering at the unreachable hop is dropped so
// the flow's next packet is decided again rather than requeued toward the
// corpse for good.
func TestFailedConnectInvalidatesRulesToDest(t *testing.T) {
	net := netsim.NewNetwork()
	dead := wire.MustAddr("fd00::dead") // never attached: handshake must fail
	node := newTestSN(t, net, "fd00::5", func(c *Config) {
		c.HandshakeTimeout = 20 * time.Millisecond
		c.HandshakeRetries = 2
	})
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	key := wire.FlowKey{Src: cl.addr, Service: wire.SvcEcho, Conn: 1}
	node.Cache().Add(key, cache.Action{Forward: []wire.Addr{dead}})
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok := node.Cache().Lookup(key); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rule toward unreachable %s survived the failed connect: %+v", dead, node.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	if node.Counters().Requeued == 0 {
		t.Fatal("forward was not requeued behind the connect")
	}
}
