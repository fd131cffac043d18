package pipe

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// holdTransport blocks the first send (Send or SendBatch) after arm until
// release, with the sealed datagrams in hand: a sender descheduled between
// sealing and the hand-off to the socket.
type holdTransport struct {
	netsim.Transport
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func newHoldTransport(inner netsim.Transport) *holdTransport {
	return &holdTransport{Transport: inner, held: make(chan struct{}), release: make(chan struct{})}
}

func (h *holdTransport) hold() {
	if h.armed.CompareAndSwap(true, false) {
		close(h.held)
		<-h.release
	}
}

func (h *holdTransport) Send(dg wire.Datagram) error {
	h.hold()
	return h.Transport.Send(dg)
}

func (h *holdTransport) SendBatch(dgs []wire.Datagram) (int, error) {
	h.hold()
	return netsim.SendBatch(h.Transport, dgs)
}

// newManager builds a Manager for addr on tr with a fresh identity.
func newManager(t *testing.T, tr netsim.Transport, edit ...func(*Config)) *Manager {
	t.Helper()
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Transport: tr, Identity: id}
	for _, e := range edit {
		e(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// seqSink is a receiving node's handler that records the sequence number
// carried in each payload's first 4 bytes, in delivery order.
type seqSink struct {
	mu   sync.Mutex
	seqs []uint32
}

func (s *seqSink) handle(_ Sender, _ wire.Addr, _ wire.ILPHeader, _, payload []byte) {
	s.mu.Lock()
	s.seqs = append(s.seqs, binary.BigEndian.Uint32(payload))
	s.mu.Unlock()
}

// wait returns the recorded sequence once it holds n entries, or whatever
// arrived before the deadline.
func (s *seqSink) wait(n int, d time.Duration) []uint32 {
	deadline := time.Now().Add(d)
	for {
		s.mu.Lock()
		got := append([]uint32(nil), s.seqs...)
		s.mu.Unlock()
		if len(got) >= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func seqPayload(seq uint32) []byte {
	p := make([]byte, 16)
	binary.BigEndian.PutUint32(p, seq)
	return p
}

func openFailures(m *Manager, reason string) uint64 {
	return m.Telemetry().Counter(telemetry.Name("pipe_rx_open_failures_total", "reason", reason)).Load()
}

// TestConcurrentSealersKeepIVOrder holds one sender between sealing and
// the hand-off to the transport while another sends more than the
// receiver's 1024-IV replay window on the same pipe. Reserving IVs and
// handing the packets over is one ordered step per pipe, so the burst
// waits behind the held packet and the receiver rejects nothing. The held
// sender is a coalesced flush (an SN receive worker) in one case and a
// direct Manager send in the other.
func TestConcurrentSealersKeepIVOrder(t *testing.T) {
	for _, direct := range []bool{false, true} {
		name := "held-flush"
		if direct {
			name = "held-direct-send"
		}
		t.Run(name, func(t *testing.T) {
			net := netsim.NewNetwork(netsim.WithQueueDepth(4096))
			tr, err := net.Attach(wire.MustAddr("fd00::1"))
			if err != nil {
				t.Fatal(err)
			}
			ht := newHoldTransport(tr)
			a := newManager(t, ht)
			var sink seqSink
			b := newNode(t, net, "fd00::2", func(c *Config) { c.Handler = sink.handle })
			if err := a.Connect(b.addr); err != nil {
				t.Fatal(err)
			}
			hdr, err := (&wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}).Encode()
			if err != nil {
				t.Fatal(err)
			}

			ht.armed.Store(true)
			heldDone := make(chan struct{})
			go func() {
				defer close(heldDone)
				if direct {
					_ = a.SendHeaderBytes(b.addr, hdr, seqPayload(0))
					return
				}
				eg := a.newEgress()
				_ = eg.SendHeaderBytes(b.addr, hdr, seqPayload(0))
				eg.flushAll()
			}()
			<-ht.held

			const burst = 1100
			burstDone := make(chan struct{})
			go func() {
				defer close(burstDone)
				eg := a.newEgress()
				for i := 1; i <= burst; i++ {
					_ = eg.SendHeaderBytes(b.addr, hdr, seqPayload(uint32(i)))
				}
				eg.flushAll()
			}()
			// Give the burst every chance to overtake the held packet.
			select {
			case <-burstDone:
			case <-time.After(100 * time.Millisecond):
			}
			close(ht.release)
			<-heldDone
			<-burstDone

			got := sink.wait(burst+1, 5*time.Second)
			if n := openFailures(b.mgr, "replay"); n != 0 {
				t.Fatalf("receiver rejected %d packets as replayed or too old", n)
			}
			if len(got) != burst+1 {
				t.Fatalf("delivered %d packets, want %d", len(got), burst+1)
			}
		})
	}
}

// captureTransport records every ILP datagram it is asked to send and,
// once swallow is set, keeps them off the wire.
type captureTransport struct {
	netsim.Transport
	swallow atomic.Bool
	mu      sync.Mutex
	dgs     []wire.Datagram
}

func (c *captureTransport) Send(dg wire.Datagram) error {
	if len(dg.Payload) > 0 && wire.FrameType(dg.Payload[0]) == wire.FrameILP {
		c.mu.Lock()
		c.dgs = append(c.dgs, wire.Datagram{Dst: dg.Dst, Payload: append([]byte(nil), dg.Payload...)})
		c.mu.Unlock()
		if c.swallow.Load() {
			return nil
		}
	}
	return c.Transport.Send(dg)
}

// TestRxOpenFailuresCounted replays a sealed packet and tampers with
// another: each rejection moves pipe_rx_open_failures_total under its
// reason.
func TestRxOpenFailuresCounted(t *testing.T) {
	net := netsim.NewNetwork()
	tr, err := net.Attach(wire.MustAddr("fd00::1"))
	if err != nil {
		t.Fatal(err)
	}
	ct := &captureTransport{Transport: tr}
	a := newManager(t, ct)
	b := newNode(t, net, "fd00::2")
	if err := a.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	ct.swallow.Store(true)
	if err := a.Send(b.addr, &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte("once")); err != nil {
		t.Fatal(err)
	}
	ct.mu.Lock()
	sealed := ct.dgs[len(ct.dgs)-1]
	ct.mu.Unlock()

	tampered := append([]byte(nil), sealed.Payload...)
	tampered[len(tampered)-1] ^= 1
	// Tampered first (rejected without touching the replay window), then
	// the original twice: accepted once, rejected as a replay once. One
	// source's datagrams are opened in arrival order.
	for _, p := range [][]byte{tampered, sealed.Payload, sealed.Payload} {
		if err := tr.Send(wire.Datagram{Dst: b.addr, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case got := <-b.rx:
		if string(got.payload) != "once" {
			t.Fatalf("payload = %q", got.payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("original packet not delivered")
	}
	deadline := time.Now().Add(2 * time.Second)
	for openFailures(b.mgr, "replay") != 1 || openFailures(b.mgr, "auth") != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("open failures: replay=%d auth=%d, want 1 and 1",
				openFailures(b.mgr, "replay"), openFailures(b.mgr, "auth"))
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case got := <-b.rx:
		t.Fatalf("rejected packet delivered: %+v", got)
	default:
	}
}

// newUDPManager attaches a Manager to a loopback UDP socket registered in
// dir.
func newUDPManager(t *testing.T, dir *netsim.UDPDirectory, addr string, wrap func(netsim.Transport) netsim.Transport, edit ...func(*Config)) *Manager {
	t.Helper()
	tr, err := netsim.NewUDPTransport(wire.MustAddr(addr), "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	var nt netsim.Transport = tr
	if wrap != nil {
		nt = wrap(tr)
	}
	return newManager(t, nt, edit...)
}

// TestTxQueueIdleSendsDirectBurstsCoalesce checks the staged send path
// over loopback UDP: a send to an idle socket goes straight out, sends
// that arrive while a send is in progress queue behind it and leave as one
// coalesced flush, and every packet arrives once and in order.
func TestTxQueueIdleSendsDirectBurstsCoalesce(t *testing.T) {
	dir := netsim.NewUDPDirectory()
	var ht *holdTransport
	a := newUDPManager(t, dir, "fd00::1", func(tr netsim.Transport) netsim.Transport {
		ht = newHoldTransport(tr)
		return ht
	})
	if a.txq == nil {
		t.Fatal("no send queue on a UDP manager")
	}
	var sink seqSink
	b := newUDPManager(t, dir, "fd00::2", nil, func(c *Config) { c.Handler = sink.handle })
	if err := a.Connect(b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
	seq := uint32(0)
	send := func() {
		t.Helper()
		if err := a.Send(b.LocalAddr(), &hdr, seqPayload(seq)); err != nil {
			t.Fatal(err)
		}
		seq++
	}

	// Idle sends go straight to the socket.
	for i := 0; i < 3; i++ {
		send()
		time.Sleep(20 * time.Millisecond)
	}
	if n := a.Stats().TxBatchedPackets; n != 0 {
		t.Fatalf("idle sends were coalesced: %d batched packets", n)
	}

	// Hold a direct send at the socket; everything sent meanwhile queues
	// behind it and leaves in one flush.
	ht.armed.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		send()
	}()
	<-ht.held
	const burst = 40
	for i := 0; i < burst; i++ {
		if err := a.Send(b.LocalAddr(), &hdr, seqPayload(uint32(4+i))); err != nil {
			t.Fatal(err)
		}
	}
	close(ht.release)
	<-done
	total := 4 + burst
	got := sink.wait(total, 5*time.Second)
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("arrival %d carries seq %d; order %v", i, s, got)
		}
	}
	if len(got) != total {
		t.Fatalf("delivered %d packets, want %d", len(got), total)
	}
	if st := a.Stats(); st.TxBatchedPackets != burst || st.TxBatches != 1 {
		t.Fatalf("stats = %+v, want %d packets in 1 batch", st, burst)
	}
}

// TestCloseFlushesStagedSends closes a Manager with packets staged behind
// a send held at the socket: Close waits for the flusher, so every staged
// packet is sent before the socket closes.
func TestCloseFlushesStagedSends(t *testing.T) {
	dir := netsim.NewUDPDirectory()
	var ht *holdTransport
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := netsim.NewUDPTransport(wire.MustAddr("fd00::1"), "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	ht = newHoldTransport(tr)
	a, err := New(Config{Transport: ht, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	var sink seqSink
	b := newUDPManager(t, dir, "fd00::2", nil, func(c *Config) { c.Handler = sink.handle })
	if err := a.Connect(b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
	ht.armed.Store(true)
	go func() { _ = a.Send(b.LocalAddr(), &hdr, seqPayload(0)) }()
	<-ht.held
	const staged = 50
	for i := 1; i <= staged; i++ {
		if err := a.Send(b.LocalAddr(), &hdr, seqPayload(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error)
	go func() { closed <- a.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a send still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(ht.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	got := sink.wait(staged+1, 5*time.Second)
	drops := a.Stats().TxFlushDrops
	if uint64(len(got))+drops != staged+1 || drops != 0 {
		t.Fatalf("delivered %d, flush drops %d, want %d delivered", len(got), drops, staged+1)
	}
}

// syscallFabric presents a fabric attachment as a transport whose sends
// are system calls, so the send queue runs without a kernel that may drop.
type syscallFabric struct{ netsim.Transport }

func (syscallFabric) SyscallSend() bool { return true }

// TestTxQueueConcurrentSenders has several goroutines send on one pipe
// through the send queue at once: each sender's packets arrive once and
// in its order, and the receiver rejects none.
func TestTxQueueConcurrentSenders(t *testing.T) {
	const senders, perSender = 4, 500
	net := netsim.NewNetwork(netsim.WithQueueDepth(4 * senders * perSender))
	tr, err := net.Attach(wire.MustAddr("fd00::1"))
	if err != nil {
		t.Fatal(err)
	}
	a := newManager(t, syscallFabric{tr})
	if a.txq == nil {
		t.Fatal("no send queue on a transport whose sends are system calls")
	}
	var sink seqSink
	b := newNode(t, net, "fd00::2", func(c *Config) { c.Handler = sink.handle })
	if err := a.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
			for i := 0; i < perSender; i++ {
				if err := a.Send(b.addr, &hdr, seqPayload(uint32(s<<16|i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got := sink.wait(senders*perSender, 5*time.Second)
	next := make([]int, senders)
	for _, v := range got {
		s, i := int(v>>16), int(v&0xffff)
		if i != next[s] {
			t.Fatalf("sender %d: packet %d arrived when %d was due", s, i, next[s])
		}
		next[s]++
	}
	if len(got) != senders*perSender {
		t.Fatalf("delivered %d packets, want %d", len(got), senders*perSender)
	}
	if n := openFailures(b.mgr, "replay") + openFailures(b.mgr, "auth"); n != 0 {
		t.Fatalf("receiver rejected %d packets", n)
	}
}
