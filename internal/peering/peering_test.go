package peering

import (
	"bytes"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func TestFabricEdomainRegistry(t *testing.T) {
	f := NewFabric()
	gwA := wire.MustAddr("fd00::a1")
	if err := f.AddEdomain("ed-a", gwA); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdomain("ed-a", gwA); err == nil {
		t.Fatal("duplicate edomain accepted")
	}
	if err := f.AddEdomain("ed-x"); err == nil {
		t.Fatal("edomain without gateway accepted")
	}
	if err := f.RegisterAddr("ed-a", wire.MustAddr("fd00::a2")); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAddr("ed-zzz", wire.MustAddr("fd00::a3")); err == nil {
		t.Fatal("register in unknown edomain accepted")
	}
	if ed, ok := f.EdomainOf(gwA); !ok || ed != "ed-a" {
		t.Fatalf("EdomainOf gateway = %v %v", ed, ok)
	}
	if _, ok := f.EdomainOf(wire.MustAddr("fd00::ff")); ok {
		t.Fatal("unknown address resolved")
	}
}

func buildThreeEdomainFabric(t *testing.T) (*Fabric, map[string]wire.Addr) {
	t.Helper()
	f := NewFabric()
	addrs := map[string]wire.Addr{
		"gwA": wire.MustAddr("fd00::a1"), "snA": wire.MustAddr("fd00::a2"),
		"gwB": wire.MustAddr("fd00::b1"), "snB": wire.MustAddr("fd00::b2"),
		"gwC": wire.MustAddr("fd00::c1"),
	}
	if err := f.AddEdomain("ed-a", addrs["gwA"]); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdomain("ed-b", addrs["gwB"]); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdomain("ed-c", addrs["gwC"]); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAddr("ed-a", addrs["snA"]); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAddr("ed-b", addrs["snB"]); err != nil {
		t.Fatal(err)
	}
	var connects [][2]wire.Addr
	if err := f.EstablishMesh(func(a, b wire.Addr) error {
		connects = append(connects, [2]wire.Addr{a, b})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(connects) != 3 { // 3 edomains -> 3 pairs
		t.Fatalf("mesh made %d connections, want 3", len(connects))
	}
	if !f.MeshComplete() {
		t.Fatal("mesh not complete")
	}
	return f, addrs
}

func TestNextHopRouting(t *testing.T) {
	f, addrs := buildThreeEdomainFabric(t)

	// Same edomain: direct.
	next, err := f.NextHop(addrs["gwA"], addrs["snA"])
	if err != nil || next != addrs["snA"] {
		t.Fatalf("intra next = %v err %v", next, err)
	}
	// Non-gateway SN in A sending to SN in B: first to A's gateway.
	next, err = f.NextHop(addrs["snA"], addrs["snB"])
	if err != nil || next != addrs["gwA"] {
		t.Fatalf("toward gateway next = %v err %v", next, err)
	}
	// A's gateway: cross the pipe to B's gateway.
	next, err = f.NextHop(addrs["gwA"], addrs["snB"])
	if err != nil || next != addrs["gwB"] {
		t.Fatalf("cross next = %v err %v", next, err)
	}
	// B's gateway: deliver to the destination SN.
	next, err = f.NextHop(addrs["gwB"], addrs["snB"])
	if err != nil || next != addrs["snB"] {
		t.Fatalf("deliver next = %v err %v", next, err)
	}
	// Unknown endpoints fail.
	if _, err := f.NextHop(wire.MustAddr("fd00::ff"), addrs["snB"]); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := f.NextHop(addrs["snA"], wire.MustAddr("fd00::ff")); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestNextHopDirectConnectOptimization(t *testing.T) {
	f, addrs := buildThreeEdomainFabric(t)
	f.SetDirectConnect(true)
	next, err := f.NextHop(addrs["snA"], addrs["snB"])
	if err != nil || next != addrs["snB"] {
		t.Fatalf("direct next = %v err %v", next, err)
	}
}

func TestTransitCodecRoundTrip(t *testing.T) {
	finalDst := wire.MustAddr("fd00::b2")
	origSrc := wire.MustAddr("fd00::1")
	inner := wire.ILPHeader{Service: wire.SvcEcho, Conn: 42, Data: []byte("svc")}
	svcData, payload, err := EncodeTransit(finalDst, origSrc, &inner, []byte("inner payload"))
	if err != nil {
		t.Fatal(err)
	}
	gotDst, gotSrc, err := DecodeTransitMeta(svcData)
	if err != nil || gotDst != finalDst || gotSrc != origSrc {
		t.Fatalf("meta %v %v err %v", gotDst, gotSrc, err)
	}
	gotHdr, gotPayload, err := DecodeTransitPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.Service != inner.Service || gotHdr.Conn != inner.Conn || !bytes.Equal(gotHdr.Data, inner.Data) {
		t.Fatalf("inner hdr %+v", gotHdr)
	}
	if string(gotPayload) != "inner payload" {
		t.Fatalf("payload %q", gotPayload)
	}
}

func TestTransitCodecMalformed(t *testing.T) {
	if _, _, err := DecodeTransitMeta([]byte("short")); err != ErrBadTransit {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := DecodeTransitPayload([]byte{0}); err != ErrBadTransit {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := DecodeTransitPayload([]byte{0, 200}); err != ErrBadTransit {
		t.Fatalf("err = %v", err)
	}
}

func TestSettlementFreeLedger(t *testing.T) {
	f, _ := buildThreeEdomainFabric(t)
	f.RecordTransfer("ed-a", "ed-b", 1000)
	f.RecordTransfer("ed-a", "ed-b", 500)
	f.RecordTransfer("ed-b", "ed-a", 100)
	recs := f.Ledger()
	if len(recs) != 2 {
		t.Fatalf("ledger %v", recs)
	}
	for _, r := range recs {
		if r.FeesOwed != 0 {
			t.Fatalf("settlement-free violated: %+v", r)
		}
	}
	if recs[0].From != "ed-a" || recs[0].Bytes != 1500 || recs[0].Packets != 2 {
		t.Fatalf("record %+v", recs[0])
	}
}

// End-to-end: a packet crosses three SNs in two edomains via the
// SvcPeering forwarder and is decapsulated at the destination SN, where
// the echo module sees the ORIGINAL source and replies via transit.
func TestInterEdomainTransitEndToEnd(t *testing.T) {
	net := netsim.NewNetwork()
	fabric := NewFabric()

	mkSN := func(addr string) *sn.SN {
		tr, err := net.Attach(wire.MustAddr(addr))
		if err != nil {
			t.Fatal(err)
		}
		id, err := handshake.NewIdentity()
		if err != nil {
			t.Fatal(err)
		}
		node, err := sn.New(sn.Config{Transport: tr, Identity: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		if err := node.Register(NewForwarder(fabric, node.Inject)); err != nil {
			t.Fatal(err)
		}
		return node
	}

	gwA := mkSN("fd00::a1")
	gwB := mkSN("fd00::b1")
	snB := mkSN("fd00::b2")

	// snB hosts a transit-aware echo module.
	echoed := make(chan *sn.Packet, 1)
	if err := snB.Register(&transitEcho{fabric: fabric, got: echoed}); err != nil {
		t.Fatal(err)
	}

	if err := fabric.AddEdomain("ed-a", gwA.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := fabric.AddEdomain("ed-b", gwB.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := fabric.RegisterAddr("ed-b", snB.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := fabric.EstablishMesh(func(a, b wire.Addr) error {
		if a == gwA.Addr() {
			return gwA.Connect(b)
		}
		return gwB.Connect(b)
	}); err != nil {
		t.Fatal(err)
	}
	// Intra-edomain pipes.
	if err := gwB.Connect(snB.Addr()); err != nil {
		t.Fatal(err)
	}

	// A host in ed-a, associated with gwA.
	htr, err := net.Attach(wire.MustAddr("fd00::1"))
	if err != nil {
		t.Fatal(err)
	}
	hid, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if err := fabric.RegisterAddr("ed-a", wire.MustAddr("fd00::1")); err != nil {
		t.Fatal(err)
	}
	hostMgr, err := pipe.New(pipe.Config{Transport: htr, Identity: hid})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hostMgr.Close() })
	if err := hostMgr.Connect(gwA.Addr()); err != nil {
		t.Fatal(err)
	}

	// The host sends a transit-encapsulated echo request: finalDst snB.
	inner := wire.ILPHeader{Service: wire.SvcEcho, Conn: 9}
	svcData, payload, err := EncodeTransit(snB.Addr(), wire.MustAddr("fd00::1"), &inner, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	outer := wire.ILPHeader{Service: wire.SvcPeering, Conn: 9, Data: svcData}
	if err := hostMgr.Send(gwA.Addr(), &outer, payload); err != nil {
		t.Fatal(err)
	}

	select {
	case pkt := <-echoed:
		if pkt.Src != wire.MustAddr("fd00::1") {
			t.Fatalf("echo saw source %s, want original host", pkt.Src)
		}
		if string(pkt.Payload) != "ping" {
			t.Fatalf("payload %q", pkt.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("transit packet never reached destination SN")
	}

	// The settlement-free ledger saw the crossing.
	recs := fabric.Ledger()
	if len(recs) == 0 {
		t.Fatal("no ledger records for transit")
	}
	for _, r := range recs {
		if r.FeesOwed != 0 {
			t.Fatalf("fees on settlement-free peering: %+v", r)
		}
	}
}

// transitEcho records the decapsulated packet it receives.
type transitEcho struct {
	fabric *Fabric
	got    chan *sn.Packet
}

func (e *transitEcho) Service() wire.ServiceID { return wire.SvcEcho }
func (e *transitEcho) Name() string            { return "transit-echo" }
func (e *transitEcho) Version() string         { return "1" }
func (e *transitEcho) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	cp := *pkt
	cp.Payload = append([]byte(nil), pkt.Payload...)
	e.got <- &cp
	return sn.Decision{}, nil
}

// TestTransitConnNamesFlow pins the outer connection ID of transit
// packets: SNs on the gateway path cache forwards per (previous hop,
// SvcPeering, conn), so two flows that share an inner connection ID —
// hosts pick them independently — must not share the outer one, while
// every packet of one flow must.
func TestTransitConnNamesFlow(t *testing.T) {
	dstA, dstB := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
	src1, src2 := wire.MustAddr("fd00::1"), wire.MustAddr("fd00::2")
	inner := &wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 3}

	base := transitConn(dstA, src1, inner)
	if again := transitConn(dstA, src1, &wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 3, Data: []byte("x")}); again != base {
		t.Fatalf("one flow got outer conns %d and %d", base, again)
	}
	for name, other := range map[string]wire.ConnectionID{
		"other destination": transitConn(dstB, src1, inner),
		"other source":      transitConn(dstA, src2, inner),
		"other service":     transitConn(dstA, src1, &wire.ILPHeader{Service: wire.SvcEcho, Conn: 3}),
		"other inner conn":  transitConn(dstA, src1, &wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 4}),
	} {
		if other == base {
			t.Errorf("%s shares outer conn %d with the base flow", name, base)
		}
	}
}
