package pipe

import (
	"fmt"
	"sync"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/psp"
	"interedge/internal/wire"
)

// ilpHdr is the ILP header of a packet being staged: either already
// encoded (raw, the forwarding path re-sealing decrypted header bytes) or a
// header to encode straight into the staged buffer (hdr, so a sending
// application allocates nothing for its header).
type ilpHdr struct {
	raw []byte
	hdr *wire.ILPHeader
}

func (h ilpHdr) size() int {
	if h.hdr != nil {
		return h.hdr.EncodedSize()
	}
	return len(h.raw)
}

// stage lays one ILP packet out in a pooled sealBuf at its final wire
// offsets: the frame byte, then the PSP region with the header plaintext
// and payload in place (psp.StageSlot), ready for SealStaged. The caller
// may reuse hdr and payload as soon as it returns.
func (m *Manager) stage(h ilpHdr, payload []byte) (*sealBuf, error) {
	hdrLen := h.size()
	if h.hdr != nil && len(h.hdr.Data) > wire.MaxServiceData {
		return nil, wire.ErrHeaderTooBig
	}
	sb := m.sealBufs.Get().(*sealBuf)
	size := 1 + psp.SealedSize(hdrLen, len(payload))
	buf := sb.buf[:0]
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	buf[0] = byte(wire.FrameILP)
	slot := psp.StageSlot(buf[1:], hdrLen, payload)
	if h.hdr != nil {
		_, _ = h.hdr.SerializeTo(slot) // cannot fail: slot is EncodedSize long and Data was checked above
	} else {
		copy(slot, h.raw)
	}
	sb.buf = buf
	sb.hdrLens[0] = hdrLen
	return sb, nil
}

// sendNow seals one packet and hands it to the transport at once. The
// pipe's send lock spans the IV reservation and the hand-off, so packets
// leave in IV order (see peer.sendMu).
func (m *Manager) sendNow(dst wire.Addr, h ilpHdr, payload []byte) error {
	p := m.peer(dst)
	if p == nil {
		return fmt.Errorf("%w: %s", ErrNoPipe, dst)
	}
	sb, err := m.stage(h, payload)
	if err != nil {
		return err
	}
	sb.pkt[0] = sb.buf[1:]
	p.sendMu.Lock()
	err = p.crypto.TX.SealStaged(&sb.scratch, sb.pkt[:], sb.hdrLens[:])
	if err == nil {
		// Transports must not retain dg.Payload after Send returns, so the
		// buffer can go straight back into the pool.
		err = m.cfg.Transport.Send(wire.Datagram{Dst: dst, Payload: sb.buf})
	}
	p.sendMu.Unlock()
	n := len(sb.buf)
	sb.pkt[0] = nil
	m.sealBufs.Put(sb)
	if err != nil {
		return err
	}
	p.txPackets.Add(1)
	p.txBytes.Add(uint64(n))
	return nil
}

// destBatch accumulates staged packets bound for one pipe. The Datagram
// payloads alias the pooled sealBufs held alongside them; pkts and hdrLens
// describe the staged PSP region of each payload (everything after the
// frame byte) for the seal-at-flush pass. All are released when the batch
// flushes.
type destBatch struct {
	dst     wire.Addr
	p       *peer
	dgs     []wire.Datagram
	sbs     []*sealBuf
	pkts    [][]byte
	hdrLens []int
}

// egress is a coalescing Sender. Packets sent through it are staged per
// pipe (header and payload copied to their final wire offsets in pooled
// buffers, so callers may reuse their slices immediately) and handed to the
// transport one pipe run at a time by flushDest. Sealing is deferred to
// flush time: the whole pending run of a pipe is encrypted in place with
// one SealStaged pass — a single cipher-state fetch and one contiguous IV
// reservation — and the steady state allocates nothing.
//
// An egress is not safe for concurrent use. Each receive worker owns one,
// flushing when its input drains (flushAll — the adaptive low-load path) or
// when a pipe reaches the TxBatch cap under backpressure; the Manager's
// txQueue guards two with its lock. Per-pipe FIFO plus first-enqueue flush
// order preserves per-source packet order: one source maps to one worker,
// and that worker enqueues and flushes in arrival order. A pipe that
// re-establishes between enqueues gets a fresh batch; the old one still
// flushes, sealed under the old keys.
type egress struct {
	m       *Manager
	cap     int
	scratch psp.Scratch
	dests   map[*peer]*destBatch
	order   []*destBatch // flush order: first-enqueue order per drain cycle
	free    []*destBatch // recycled destBatch structs
	n       int          // staged packets
}

func (m *Manager) newEgress() *egress {
	return &egress{m: m, cap: m.cfg.TxBatch, dests: make(map[*peer]*destBatch)}
}

// SendHeaderBytes stages the packet (copying hdrBytes and payload to their
// wire offsets) and queues it for the next flush, which seals the whole
// run. A nil return means the packet was accepted for (possibly deferred)
// transmission; seal and transport failures at flush time surface as
// TxFlushDrops in Stats, matching how a NIC ring reports late drops.
func (e *egress) SendHeaderBytes(dst wire.Addr, hdrBytes, payload []byte) error {
	db, err := e.enqueue(dst, ilpHdr{raw: hdrBytes}, payload)
	if err != nil {
		return err
	}
	if len(db.dgs) >= e.cap {
		return e.flushDest(db)
	}
	return nil
}

// enqueue stages one packet at the tail of its pipe's batch.
func (e *egress) enqueue(dst wire.Addr, h ilpHdr, payload []byte) (*destBatch, error) {
	p := e.m.peer(dst)
	if p == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoPipe, dst)
	}
	sb, err := e.m.stage(h, payload)
	if err != nil {
		return nil, err
	}
	db := e.dests[p]
	if db == nil {
		if n := len(e.free); n > 0 {
			db = e.free[n-1]
			e.free = e.free[:n-1]
		} else {
			db = &destBatch{}
		}
		db.dst, db.p = dst, p
		e.dests[p] = db
		e.order = append(e.order, db)
	}
	db.dgs = append(db.dgs, wire.Datagram{Dst: dst, Payload: sb.buf})
	db.sbs = append(db.sbs, sb)
	db.pkts = append(db.pkts, sb.buf[1:])
	db.hdrLens = append(db.hdrLens, sb.hdrLens[0])
	e.n++
	return db, nil
}

// flushDest seals one pipe's staged queue in place with a single batch
// crypto pass, hands it to the transport as one batch, and releases the
// buffers. The pipe's send lock spans both steps, so concurrent flushers
// and direct sends on one pipe reach the wire in IV order. The destBatch
// stays registered for the rest of the drain cycle, ready to accumulate
// again.
func (e *egress) flushDest(db *destBatch) error {
	if len(db.dgs) == 0 {
		return nil
	}
	m := e.m
	e.n -= len(db.dgs)
	db.p.sendMu.Lock()
	if err := db.p.crypto.TX.SealStaged(&e.scratch, db.pkts, db.hdrLens); err != nil {
		db.p.sendMu.Unlock()
		// A seal failure poisons the whole staged run (IVs are already
		// consumed); account every packet as a flush drop.
		m.txFlushDrops.Add(uint64(len(db.dgs)))
		db.release(m)
		return err
	}
	n, err := netsim.SendBatch(m.cfg.Transport, db.dgs)
	db.p.sendMu.Unlock()
	var bytes uint64
	for i := 0; i < n; i++ {
		bytes += uint64(len(db.dgs[i].Payload))
	}
	db.p.txPackets.Add(uint64(n))
	db.p.txBytes.Add(bytes)
	m.txBatches.Add(1)
	m.txBatchedPackets.Add(uint64(n))
	m.flushBatchSize.Observe(uint64(len(db.dgs)))
	if dropped := len(db.dgs) - n; dropped > 0 {
		m.txFlushDrops.Add(uint64(dropped))
	}
	// Transports must not retain the batch or its payloads once SendBatch
	// returns, so the seal buffers go straight back to the pool.
	db.release(m)
	return err
}

// release returns the batch's pooled buffers and resets its queues.
func (db *destBatch) release(m *Manager) {
	for i := range db.sbs {
		m.sealBufs.Put(db.sbs[i])
		db.sbs[i] = nil
		db.dgs[i] = wire.Datagram{}
		db.pkts[i] = nil
	}
	db.dgs = db.dgs[:0]
	db.sbs = db.sbs[:0]
	db.pkts = db.pkts[:0]
	db.hdrLens = db.hdrLens[:0]
}

// flushAll drains every pipe in first-enqueue order and resets the
// coalescer for the next cycle. Called by the worker the moment its input
// channel has nothing ready.
func (e *egress) flushAll() {
	if len(e.order) == 0 {
		return
	}
	for i, db := range e.order {
		_ = e.flushDest(db) // failures are accounted as TxFlushDrops
		delete(e.dests, db.p)
		db.p = nil
		e.free = append(e.free, db)
		e.order[i] = nil
	}
	e.order = e.order[:0]
}

// pending reports how many staged packets are queued but not yet flushed.
func (e *egress) pending() int { return e.n }

// txQueue coalesces the Manager's own sends — a host's application
// traffic, an SN's module and control sends — on transports where each
// Send is a system call. Senders stage into one egress under mu; one TX
// goroutine swaps it for a second, empty one and flushes what it took, one
// SealStaged and one SendBatch per pipe, so a burst to the first-hop SN
// leaves as one GSO super-datagram.
//
// An idle sender skips the queue: a send that finds nothing staged, no
// flush or direct send in progress, and a gap since the previous direct
// send ended longer than that send took, is sealed and sent on the
// caller's goroutine, adding no hand-off latency. Every other send queues
// behind whatever owns the socket, so sends leave in the order they took
// mu.
type txQueue struct {
	m    *Manager
	kick chan struct{} // wakes the flusher; holds at most one token
	quit chan struct{} // closed by Manager.Close once no more sends stage
	done chan struct{} // closed when the flusher has drained and exited

	mu     sync.Mutex
	room   sync.Cond // signalled when the flusher takes the staged packets
	stage  *egress   // senders fill it under mu
	spare  *egress   // the flusher's, outside mu
	limit  int       // staged packets at which senders wait for room
	busy   bool      // a direct send or the flusher owns the socket
	closed bool
	// lastEnd and lastDur are when the previous direct send ended and
	// how long it took, in monotime ns.
	lastEnd, lastDur int64
}

// txQueueDepth is how many TxBatch-sized runs may be staged before
// senders block, as a full socket buffer would block them.
const txQueueDepth = 8

// monoBase anchors the monotonic clock the txQueue times direct sends on.
// It is real time, not Config.Clock: the question is how long a system
// call took.
var monoBase = time.Now()

func monotime() int64 { return int64(time.Since(monoBase)) }

func (m *Manager) newTxQueue() *txQueue {
	q := &txQueue{
		m:     m,
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		stage: m.newEgress(),
		spare: m.newEgress(),
		limit: txQueueDepth * m.cfg.TxBatch,
	}
	q.room.L = &q.mu
	go q.run()
	return q
}

// send transmits one packet, directly when the socket is idle, otherwise
// by staging it for the flusher. A nil return from a staged send means
// the packet was accepted; later seal or socket failures are counted in
// pipe_tx_flush_drops_total.
func (q *txQueue) send(dst wire.Addr, h ilpHdr, payload []byte) error {
	q.mu.Lock()
	for q.stage.n >= q.limit && !q.closed {
		q.room.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return q.m.sendNow(dst, h, payload)
	}
	start := monotime()
	if !q.busy && q.stage.n == 0 && start-q.lastEnd > q.lastDur {
		q.busy = true
		q.mu.Unlock()
		err := q.m.sendNow(dst, h, payload)
		end := monotime()
		q.mu.Lock()
		q.lastEnd, q.lastDur = end, end-start
		q.handOff()
		q.mu.Unlock()
		return err
	}
	_, err := q.stage.enqueue(dst, h, payload)
	if err == nil && !q.busy {
		q.busy = true
		q.wake()
	}
	q.mu.Unlock()
	return err
}

// handOff releases the socket after a direct send: to the flusher when
// packets queued behind it, else to the next sender. Called with mu held.
func (q *txQueue) handOff() {
	if q.stage.n == 0 {
		q.busy = false
		return
	}
	q.wake()
}

// wake hands the socket to the flusher.
func (q *txQueue) wake() {
	select {
	case q.kick <- struct{}{}:
	default: // a token is already pending
	}
}

// run is the TX goroutine. It owns the socket from a kick until the queue
// is empty, and drains whatever is left once Close stops staging.
func (q *txQueue) run() {
	defer close(q.done)
	for {
		select {
		case <-q.kick:
			q.drain()
		case <-q.quit:
			q.drain()
			return
		}
	}
}

// drain flushes staged packets until none are left, then frees the socket.
func (q *txQueue) drain() {
	q.mu.Lock()
	for q.stage.n > 0 {
		q.stage, q.spare = q.spare, q.stage
		q.room.Broadcast()
		q.mu.Unlock()
		q.spare.flushAll()
		q.mu.Lock()
	}
	q.busy = false
	q.mu.Unlock()
}

// close stops staging (later sends go straight to the transport) and waits
// for the flusher to send or count as dropped everything already staged.
func (q *txQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.room.Broadcast()
	q.mu.Unlock()
	close(q.quit)
	<-q.done
}
