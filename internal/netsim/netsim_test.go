package netsim

import (
	"testing"
	"time"

	"interedge/internal/clock"
	"interedge/internal/wire"
)

func attach(t *testing.T, n *Network, addr string) Transport {
	t.Helper()
	tr, err := n.Attach(wire.MustAddr(addr))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBasicDelivery(t *testing.T) {
	n := NewNetwork()
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	select {
	case dg := <-b.Receive():
		if string(dg.Payload) != "hello" {
			t.Fatalf("payload %q", dg.Payload)
		}
		if dg.Src != a.LocalAddr() {
			t.Fatalf("src %s, want %s", dg.Src, a.LocalAddr())
		}
	case <-time.After(time.Second):
		t.Fatal("timeout")
	}
}

func TestSenderBufferReuseSafe(t *testing.T) {
	n := NewNetwork()
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	buf := []byte("first")
	if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: buf}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX")
	dg := <-b.Receive()
	if string(dg.Payload) != "first" {
		t.Fatalf("delivered payload mutated: %q", dg.Payload)
	}
}

func TestUnknownDestination(t *testing.T) {
	n := NewNetwork()
	a := attach(t, n, "fd00::1")
	err := a.Send(wire.Datagram{Dst: wire.MustAddr("fd00::99"), Payload: []byte("x")})
	if err != ErrUnknownDestination {
		t.Fatalf("err = %v, want ErrUnknownDestination", err)
	}
}

func TestDuplicateAttachRejected(t *testing.T) {
	n := NewNetwork()
	attach(t, n, "fd00::1")
	if _, err := n.Attach(wire.MustAddr("fd00::1")); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestCloseStopsSendAndClosesReceive(t *testing.T) {
	n := NewNetwork()
	a := attach(t, n, "fd00::1")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(wire.Datagram{Dst: wire.MustAddr("fd00::2")}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, ok := <-a.Receive(); ok {
		t.Fatal("receive channel not closed")
	}
	// Address is reusable after close.
	if _, err := n.Attach(wire.MustAddr("fd00::1")); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyWithManualClock(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNetwork(WithClock(clk))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	n.SetLinkBoth(a.LocalAddr(), b.LocalAddr(), LinkProfile{Latency: 10 * time.Millisecond})

	if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte("slow")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Receive():
		t.Fatal("delivered before latency elapsed")
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(10 * time.Millisecond)
	select {
	case dg := <-b.Receive():
		if string(dg.Payload) != "slow" {
			t.Fatalf("payload %q", dg.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("not delivered after clock advance")
	}
}

func TestLossIsDeterministicWithSeed(t *testing.T) {
	run := func() (delivered int) {
		n := NewNetwork(WithSeed(7))
		a := attach(t, n, "fd00::1")
		b := attach(t, n, "fd00::2")
		n.SetLink(a.LocalAddr(), b.LocalAddr(), LinkProfile{LossRate: 0.5})
		for i := 0; i < 100; i++ {
			if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		for {
			select {
			case <-b.Receive():
				delivered++
			case <-time.After(50 * time.Millisecond):
				return delivered
			}
		}
	}
	d1 := run()
	d2 := run()
	if d1 != d2 {
		t.Fatalf("same seed delivered %d then %d", d1, d2)
	}
	if d1 == 0 || d1 == 100 {
		t.Fatalf("loss rate 0.5 delivered %d/100", d1)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := NewNetwork()
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	n.Partition(a.LocalAddr(), b.LocalAddr())
	if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte("lost")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Receive():
		t.Fatal("partitioned delivery")
	case <-time.After(20 * time.Millisecond):
	}
	n.Heal(a.LocalAddr(), b.LocalAddr())
	if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte("healed")}); err != nil {
		t.Fatal(err)
	}
	select {
	case dg := <-b.Receive():
		if string(dg.Payload) != "healed" {
			t.Fatalf("payload %q", dg.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery after heal")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n := NewNetwork(WithQueueDepth(4))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	for i := 0; i < 10; i++ {
		if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Snapshot()
	if st.DroppedQueue != 6 {
		t.Fatalf("DroppedQueue = %d, want 6", st.DroppedQueue)
	}
	if st.Delivered != 4 {
		t.Fatalf("Delivered = %d, want 4", st.Delivered)
	}
}

func TestBandwidthQueueingDelay(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNetwork(WithClock(clk))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	// 1000 B/s: a ~1000B datagram takes about a second on the wire.
	n.SetLink(a.LocalAddr(), b.LocalAddr(), LinkProfile{BandwidthBps: 1000})
	payload := make([]byte, 1000-wire.DatagramHeaderSize)
	for i := 0; i < 2; i++ {
		if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	// After 1s: only the first datagram has finished serializing.
	clk.Advance(time.Second)
	got := 0
	deadline := time.After(200 * time.Millisecond)
drain1:
	for {
		select {
		case <-b.Receive():
			got++
		case <-deadline:
			break drain1
		}
	}
	if got != 1 {
		t.Fatalf("after 1s got %d datagrams, want 1", got)
	}
	clk.Advance(time.Second)
	select {
	case <-b.Receive():
	case <-time.After(time.Second):
		t.Fatal("second datagram never arrived")
	}
}

func TestStatsCounters(t *testing.T) {
	n := NewNetwork()
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	for i := 0; i < 5; i++ {
		if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Snapshot()
	if st.Sent != 5 || st.Delivered != 5 || st.BytesSent != 500 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverMTURejected(t *testing.T) {
	n := NewNetwork()
	a := attach(t, n, "fd00::1")
	attach(t, n, "fd00::2")
	err := a.Send(wire.Datagram{Dst: wire.MustAddr("fd00::2"), Payload: make([]byte, wire.MTU+1)})
	if err == nil {
		t.Fatal("over-MTU send succeeded")
	}
}

func TestAddrAllocatorUnique(t *testing.T) {
	alloc := NewAddrAllocator()
	seen := map[wire.Addr]bool{}
	for i := 0; i < 1000; i++ {
		a := alloc.Next()
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	dir := NewUDPDirectory()
	addrA, addrB := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
	ta, err := NewUDPTransport(addrA, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewUDPTransport(addrB, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	if err := ta.Send(wire.Datagram{Dst: addrB, Payload: []byte("over udp")}); err != nil {
		t.Fatal(err)
	}
	select {
	case dg := <-tb.Receive():
		if string(dg.Payload) != "over udp" || dg.Src != addrA {
			t.Fatalf("got %+v", dg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestUDPTransportUnknownDestination(t *testing.T) {
	dir := NewUDPDirectory()
	ta, err := NewUDPTransport(wire.MustAddr("fd00::a"), "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	if err := ta.Send(wire.Datagram{Dst: wire.MustAddr("fd00::b")}); err != ErrUnknownDestination {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkFabricDelivery(b *testing.B) {
	n := NewNetwork()
	a, _ := n.Attach(wire.MustAddr("fd00::1"))
	dst, _ := n.Attach(wire.MustAddr("fd00::2"))
	payload := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		for range dst.Receive() {
		}
		close(done)
	}()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(wire.Datagram{Dst: dst.LocalAddr(), Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	dst.Close()
	<-done
}

func TestDelayedDeliveryQueuedByAdvance(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNetwork(WithClock(clk))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	n.SetLinkBoth(a.LocalAddr(), b.LocalAddr(), LinkProfile{Latency: 10 * time.Millisecond})
	for i := 0; i < 3; i++ {
		if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Pending(); got != 0 {
		t.Fatalf("%d pending before the latency elapsed", got)
	}
	// On a Manual clock the deliveries happen inside Advance, in send
	// order: they are queued when it returns, with no goroutine to wait on.
	clk.Advance(10 * time.Millisecond)
	if got := n.Pending(); got != 3 {
		t.Fatalf("%d pending right after Advance, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if dg := <-b.Receive(); dg.Payload[0] != byte(i) {
			t.Fatalf("datagram %d carried %d", i, dg.Payload[0])
		}
	}
	// Taken is not handled: a datagram stays pending until its receiver
	// reports it done.
	if got := n.Pending(); got != 3 {
		t.Fatalf("%d pending after the receiver took them, want 3", got)
	}
	b.(RxTracker).RxDone(3)
	if got := n.Pending(); got != 0 {
		t.Fatalf("%d pending after RxDone", got)
	}
}
