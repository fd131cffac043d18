package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/wire"
)

const (
	// packetTimeout is how long a packet may stay undelivered before the
	// checker counts it as a timeout.
	packetTimeout = int64(failTimeout)
	// stallAfter is how long a generator may see no progress while it has
	// packets in flight before the stall is counted and registries dumped.
	stallAfter = 2 * time.Second
	// drainWait bounds the wait for in-flight packets at a phase's end.
	drainWait    = 2 * time.Second
	flowRingBits = 16
)

// flow is one generated connection: its packets carry id, travel on conn
// and must arrive at dst.
type flow struct {
	id    uint32
	conn  atomic.Uint64 // wire.ConnectionID; set when the flow opens
	dst   wire.Addr
	send  func(payload []byte) error
	trace *traceSlot // non-nil on connections reserved for tracing

	// First-packet accounting for churned flows: the first packet's
	// sequence number (+1, 0 before it is sent) and, for a flow from a
	// host that attached for it, when its Associate began.
	firstSeq    atomic.Uint64
	attachStart int64
}

// generator is one load-generating goroutine's state. It owns one
// ingress host; every choice it makes comes from its seeded rng.
type generator struct {
	id     int
	rng    *rand.Rand
	tr     *tracker
	flows  [1 << flowRingBits]atomic.Pointer[flow] // by flow index, for receivers
	nflows uint32
	active []*flow // established flows; the unloaded phase draws from them
	traced []*flow // reserved trace flows
	// stream picks the flow for the loaded phases: an established flow,
	// or for churn the current short-lived flow.
	stream func() *flow
	// flowOf maps a ring slot to its packet's flow; generator-owned.
	flowOf []*flow
	buf    []byte // payload buffer; fill is seeded at setup
	sink   *sink

	// wait's state: its reusable timer and the stall detector.
	timer         *time.Timer
	lastProgress  int64
	lastDelivered uint64
	stalled       bool
}

func newGenerator(id int, seed uint64, payloadSize int, s *sink) *generator {
	g := &generator{
		id:     id,
		rng:    rand.New(rand.NewPCG(seed, uint64(id)+1)),
		tr:     newTracker(),
		buf:    make([]byte, payloadSize),
		sink:   s,
		flowOf: make([]*flow, 1<<ringBits),
	}
	g.stream = g.pick
	for i := payloadHdr; i < payloadSize; i++ {
		g.buf[i] = byte(g.rng.Uint32())
	}
	return g
}

// addFlow registers a flow so receivers can find it by ID.
func (g *generator) addFlow(f *flow) {
	f.id = uint32(g.id)<<flowGenShift | g.nflows&(1<<flowRingBits-1)
	g.flows[g.nflows&(1<<flowRingBits-1)].Store(f)
	g.nflows++
}

func (g *generator) pick() *flow { return g.active[g.rng.IntN(len(g.active))] }

// emit sends one packet on f, scheduled at sched.
func (g *generator) emit(f *flow, sched int64) {
	t := g.tr
	seq := t.next
	t.next++
	slot := t.slot(seq)
	if old := slot.Load(); old != 0 && old&markMask == 0 && t.claim(old-1, markFailed) {
		// The ring wrapped over a packet that never arrived.
		g.sink.fail(&g.sink.c.timeouts, g.flowOf[seq&(1<<ringBits-1)], old-1)
	}
	t.sched[seq&(1<<ringBits-1)] = sched
	g.flowOf[seq&(1<<ringBits-1)] = f
	f.firstSeq.CompareAndSwap(0, seq+1)
	slot.Store(seq + 1)
	t.inflight.Add(1)
	encodePayload(g.buf, f.id, seq, f.dst, sched)
	g.sink.c.attempted.Add(1)
	var ts *traceSlot
	if f.trace != nil && g.sink.tracer.active() {
		ts = f.trace
		ts.arm(seq, sched)
		ts.t[stSendStart].Store(nowNs())
	}
	err := f.send(g.buf)
	if ts != nil {
		ts.sent(g.sink.tracer, nowNs())
	}
	if err != nil {
		if ts != nil {
			ts.reset()
		}
		if t.claim(seq, markFailed) {
			g.sink.fail(&g.sink.c.sendErrors, f, seq)
		}
	}
}

// sweep counts packets older than cutoff that never arrived as timeouts.
func (g *generator) sweep(cutoff int64) {
	t := g.tr
	for ; t.lo < t.next; t.lo++ {
		seq := t.lo
		if v := t.slot(seq).Load(); v != seq+1 {
			continue // settled, or overwritten after a wrap
		}
		if t.sched[seq&(1<<ringBits-1)] > cutoff {
			return
		}
		if t.claim(seq, markFailed) {
			g.sink.fail(&g.sink.c.timeouts, g.flowOf[seq&(1<<ringBits-1)], seq)
		}
	}
}

// closedLoop keeps window packets in flight until end, on flows pick
// chooses.
func (g *generator) closedLoop(window int64, end int64, pick func() *flow) {
	for {
		now := nowNs()
		if now >= end {
			return
		}
		if g.tr.inflight.Load() < window {
			g.emit(pick(), now)
			continue
		}
		g.wait(now)
	}
}

// wait blocks until one of the generator's packets settles. Every 100 ms
// without one it counts overdue packets as timeouts, and after
// stallAfter without any delivery it records a stall.
func (g *generator) wait(now int64) {
	select {
	case <-g.tr.notify:
		return
	default:
	}
	if g.timer == nil {
		g.timer = time.NewTimer(time.Hour)
		g.lastProgress = now
	}
	g.timer.Reset(100 * time.Millisecond)
	select {
	case <-g.tr.notify:
		if !g.timer.Stop() {
			<-g.timer.C
		}
		return
	case <-g.timer.C:
	}
	now = nowNs()
	g.sweep(now - packetTimeout)
	if d := g.sink.c.delivered.Load(); d != g.lastDelivered {
		g.lastDelivered, g.lastProgress, g.stalled = d, now, false
	} else if !g.stalled && now-g.lastProgress > int64(stallAfter) {
		g.stalled = true
		g.sink.stall()
	}
}

// openLoop offers Poisson arrivals at rate packets/s until end, timing
// each packet from its scheduled send time. At most window packets are
// in flight: a generator that reaches it waits, and since packets are
// timed from their schedule the wait counts in their latency. late
// records how far behind its schedule the generator ran.
func (g *generator) openLoop(rate float64, window int64, start, end int64, late *hist) {
	next := float64(start)
	for {
		now := nowNs()
		if now >= end {
			return
		}
		if gap := int64(next) - now; gap > 0 {
			pace(gap)
			continue
		}
		if g.tr.inflight.Load() >= window {
			g.wait(now)
			continue
		}
		sched := int64(next)
		late.record(now - sched)
		g.emit(g.stream(), sched)
		next += g.rng.ExpFloat64() * 1e9 / rate
	}
}

// pace waits out a gap in the schedule by sleeping. The runtime wakes a
// sleeper late when the process is idle, so the generator can fall behind
// and catch up in bursts; that lateness is reported as loadgen.late_us,
// and it is in loaded latency because packets are timed from their
// schedule. Spinning instead would take a CPU from the program under
// test on a 2-core machine.
func pace(gap int64) {
	time.Sleep(time.Duration(gap))
}

// drain waits for in-flight packets, then counts the rest as timeouts.
func (g *generator) drain() {
	deadline := time.Now().Add(drainWait)
	for g.tr.inflight.Load() > 0 && time.Now().Before(deadline) {
		select {
		case <-g.tr.notify:
		case <-time.After(10 * time.Millisecond):
		}
	}
	g.sweep(1<<62 - 1)
}

// sink is the receive side: it verifies every delivered packet and
// settles it with its generator's tracker.
type sink struct {
	c       counters
	gens    []*generator
	cur     atomic.Pointer[hist] // the current phase's latency histogram
	tracer  *tracer              // nil in the untraced run
	onStall func()
	// first and attach, when set, collect churned flows' first-packet
	// latency from the flow's start and from its host's Associate.
	first, attach atomic.Pointer[hist]

	stallMu sync.Mutex
}

// fail counts a failed packet seq of flow f under counter c. It ranks
// beyond every latency percentile of its phase and, when it was a flow's
// first packet, of the first-packet latencies too.
func (s *sink) fail(c *atomic.Uint64, f *flow, seq uint64) {
	c.Add(1)
	s.cur.Load().fails.Add(1)
	if f == nil || f.firstSeq.Load() != seq+1 {
		return
	}
	if h := s.first.Load(); h != nil {
		h.fails.Add(1)
	}
	if h := s.attach.Load(); h != nil && f.attachStart != 0 {
		h.fails.Add(1)
	}
}

func (s *sink) stall() {
	s.c.stalls.Add(1)
	if s.onStall != nil {
		s.stallMu.Lock()
		s.onStall()
		s.stallMu.Unlock()
	}
}

// deliver checks one packet arriving at host self with header conn.
func (s *sink) deliver(self wire.Addr, conn wire.ConnectionID, payload []byte) {
	now := nowNs()
	id, seq, dst, sched, ok := decodePayload(payload)
	if !ok {
		s.c.corrupt.Add(1)
		return
	}
	gi := int(id >> flowGenShift)
	if gi >= len(s.gens) {
		s.c.corrupt.Add(1)
		return
	}
	g := s.gens[gi]
	f := g.flows[id&(1<<flowRingBits-1)].Load()
	if f == nil || f.id != id || seq >= 1<<62 {
		s.c.corrupt.Add(1)
		return
	}
	if dst != self || f.dst != self || wire.ConnectionID(f.conn.Load()) != conn {
		if g.tr.claim(seq, markFailed) {
			s.fail(&s.c.misdelivered, f, seq)
		} else {
			s.c.late.Add(1)
		}
		return
	}
	if !g.tr.claim(seq, markDelivered) {
		if g.tr.delivered(seq) {
			s.fail(&s.c.duplicates, nil, seq)
		} else {
			s.c.late.Add(1)
		}
		return
	}
	s.c.delivered.Add(1)
	s.cur.Load().record(now - sched)
	if f.firstSeq.Load() == seq+1 {
		if h := s.first.Load(); h != nil {
			h.record(now - sched)
		}
		if h := s.attach.Load(); h != nil && f.attachStart != 0 {
			h.record(now - f.attachStart)
		}
	}
	if f.trace != nil {
		f.trace.delivered(s.tracer, seq, now)
	}
}
