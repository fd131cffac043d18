package host

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/wire"
)

// newTestConn opens an echo connection from a fabric host through an SN,
// returning the network and the SN's address beside it.
func newTestConn(t *testing.T, opts ...ConnOption) (*Conn, *netsim.Network, wire.Addr) {
	t.Helper()
	nw := netsim.NewNetwork()
	node := newSN(t, nw, "fd00::100")
	h := newHost(t, nw, "fd00::1")
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	c, err := h.NewConn(wire.SvcEcho, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, nw, node.Addr()
}

// TestConnReceiveBufferLazy covers the receive buffer's first use from
// each side: it does not exist after NewConn; Receive or a delivery
// creates it with the configured depth and drop-when-full behaviour; and
// Receive after a Close without use still returns a closed channel.
func TestConnReceiveBufferLazy(t *testing.T) {
	msg := func(s string) Message { return Message{Payload: []byte(s)} }

	t.Run("none-after-NewConn", func(t *testing.T) {
		c, _, _ := newTestConn(t)
		if c.rx != nil {
			t.Fatal("NewConn allocated the receive buffer")
		}
	})
	t.Run("receive-before-delivery", func(t *testing.T) {
		c, _, _ := newTestConn(t)
		ch := c.Receive()
		c.deliver(msg("a"))
		if got := <-ch; string(got.Payload) != "a" {
			t.Fatalf("got %q", got.Payload)
		}
	})
	t.Run("delivery-before-receive", func(t *testing.T) {
		c, _, _ := newTestConn(t)
		c.deliver(msg("a"))
		c.deliver(msg("b"))
		ch := c.Receive()
		if got := <-ch; string(got.Payload) != "a" {
			t.Fatalf("got %q", got.Payload)
		}
		if got := <-ch; string(got.Payload) != "b" {
			t.Fatalf("got %q", got.Payload)
		}
	})
	t.Run("drop-when-full", func(t *testing.T) {
		c, _, _ := newTestConn(t, WithBuffer(2))
		for _, s := range []string{"a", "b", "c"} {
			c.deliver(msg(s))
		}
		if n, capacity := len(c.Receive()), cap(c.Receive()); n != 2 || capacity != 2 {
			t.Fatalf("buffer holds %d of %d, want 2 of 2", n, capacity)
		}
	})
	t.Run("close-without-use", func(t *testing.T) {
		c, _, _ := newTestConn(t)
		c.Close()
		if _, ok := <-c.Receive(); ok {
			t.Fatal("receive channel not closed")
		}
	})
	t.Run("concurrent-first-use", func(t *testing.T) {
		c, _, _ := newTestConn(t)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				c.deliver(msg("x"))
			}()
			go func() {
				defer wg.Done()
				_ = c.Receive()
			}()
		}
		wg.Wait()
		if n := len(c.Receive()); n != 4 {
			t.Fatalf("buffer holds %d messages, want 4", n)
		}
		c.Close()
	})
}

// TestConnSendAllocs pins Conn.Send at zero allocations on the direct
// fabric path and on the staged UDP path. Nothing reaches a receiver, so
// only the send side is counted: the fabric link is partitioned, and the
// UDP first hop's directory entry is re-pointed at a socket nobody reads.
func TestConnSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	payload := make([]byte, 64)
	data := []byte("svc")

	t.Run("fabric", func(t *testing.T) {
		c, nw, first := newTestConn(t)
		nw.Partition(c.host.Addr(), first)
		if n := testing.AllocsPerRun(1000, func() {
			if err := c.Send(data, payload); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Conn.Send allocates %v times per call on the fabric", n)
		}
	})

	t.Run("staged-udp", func(t *testing.T) {
		dir := netsim.NewUDPDirectory()
		snMgr := newUDPPipe(t, dir, "fd00::100", nil)
		h := newUDPHost(t, dir, "fd00::1")
		if err := h.Associate(snMgr.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		c, err := h.NewConn(wire.SvcEcho)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sink.Close() })
		dir.Register(snMgr.LocalAddr(), sink.LocalAddr().(*net.UDPAddr))
		if n := testing.AllocsPerRun(2000, func() {
			if err := c.Send(data, payload); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Conn.Send allocates %v times per call on the staged UDP path", n)
		}
		if st := h.Pipes().Stats(); st.TxBatchedPackets == 0 {
			t.Fatalf("back-to-back sends never took the staged path: %+v", st)
		}
	})
}

// newUDPPipe attaches a bare pipe Manager to a loopback UDP socket.
func newUDPPipe(t *testing.T, dir *netsim.UDPDirectory, addr string, handler pipe.PacketHandler) *pipe.Manager {
	t.Helper()
	tr, err := netsim.NewUDPTransport(wire.MustAddr(addr), "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.New(pipe.Config{Transport: tr, Identity: id, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func newUDPHost(t *testing.T, dir *netsim.UDPDirectory, addr string) *Host {
	t.Helper()
	tr, err := netsim.NewUDPTransport(wire.MustAddr(addr), "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{Transport: tr, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// TestConnSendOrderOverUDP mixes idle sends and back-to-back bursts on one
// Conn over loopback UDP: idle sends go straight to the socket, bursts
// queue and coalesce, and the first hop sees every packet once and in
// order.
func TestConnSendOrderOverUDP(t *testing.T) {
	dir := netsim.NewUDPDirectory()
	var mu sync.Mutex
	var seqs []uint32
	first := newUDPPipe(t, dir, "fd00::100", func(_ pipe.Sender, _ wire.Addr, _ wire.ILPHeader, _, payload []byte) {
		mu.Lock()
		seqs = append(seqs, binary.BigEndian.Uint32(payload))
		mu.Unlock()
	})
	h := newUDPHost(t, dir, "fd00::1")
	if err := h.Associate(first.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	c, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32)
	var seq uint32
	send := func() {
		t.Helper()
		binary.BigEndian.PutUint32(payload, seq)
		if err := c.Send(nil, payload); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			send()
			time.Sleep(2 * time.Millisecond)
		}
		for i := 0; i < 100; i++ {
			send()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	var got []uint32
	for {
		mu.Lock()
		got = append(got[:0], seqs...)
		mu.Unlock()
		if len(got) >= int(seq) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("arrival %d carries seq %d", i, s)
		}
	}
	if len(got) != int(seq) {
		t.Fatalf("first hop received %d of %d packets", len(got), seq)
	}
	if st := h.Pipes().Stats(); st.TxBatchedPackets == 0 || st.TxBatchedPackets == uint64(seq) {
		t.Fatalf("want both direct and coalesced sends, got %d of %d coalesced", st.TxBatchedPackets, seq)
	}
}
