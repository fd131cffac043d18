package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"interedge/internal/lookup"
	"interedge/internal/netsim"
	"interedge/internal/services/ipfwd"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Stage boundaries of one sampled packet, in path order.
const (
	stSched      = iota // due to be sent
	stSendStart         // ingress host Send called
	stSendEnd           // ingress host Send returned
	stRx                // first-hop SN TraceRx
	stClassified        // TraceFastPath or TraceSlowPath
	stModEnter          // module wrapper entered
	stModExit           // module wrapper returned
	stForward           // TraceForward, or the SN's transport send on the slow path
	stDelivered         // egress host handler
	nStamps
)

// traceSlot follows the one sampled packet in flight on a connection
// reserved for tracing. (Src, Conn) in telemetry.PacketTrace and in
// sn.Packet identifies the connection, so the slot is found at each hop.
type traceSlot struct {
	key    connKey
	egress wire.Addr
	seq    atomic.Uint64 // armed packet's seq+1; 0 when idle
	t      [nStamps]atomic.Int64
	child  atomic.Int64 // time spent in child spans inside the module
	// parties counts the two events that close a trace: the generator's
	// Send returning and the packet's delivery. Either may come first;
	// the second one records the spans.
	parties atomic.Int32
}

type connKey struct {
	src  wire.Addr
	conn wire.ConnectionID
}

func (ts *traceSlot) arm(seq uint64, sched int64) {
	for i := range ts.t {
		ts.t[i].Store(0)
	}
	ts.child.Store(0)
	ts.parties.Store(0)
	ts.t[stSched].Store(sched)
	ts.seq.Store(seq + 1)
}

func (ts *traceSlot) reset() { ts.seq.Store(0) }

// mark records stage st once per packet.
func (ts *traceSlot) mark(st int, now int64) {
	ts.t[st].CompareAndSwap(0, now)
}

// span is one recorded interval; spans of a packet share Trace.
type span struct {
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracer owns the trace slots and the spans they produce. It stays
// dormant — every hook a single atomic load — until on() is called, so
// one process measures the same path with and without tracing.
type tracer struct {
	on         atomic.Bool
	slots      map[connKey]*traceSlot // read-only once the rig is built
	awaitTx    atomic.Pointer[traceSlot]
	inModule   atomic.Pointer[traceSlot]
	mu         sync.Mutex
	spans      []span
	hists      map[string]*hist
	samples    uint64
	incomplete uint64
}

func newTracer() *tracer {
	return &tracer{slots: make(map[connKey]*traceSlot), hists: make(map[string]*hist)}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// reserve creates the slot for a traced connection.
func (t *tracer) reserve(src wire.Addr, conn wire.ConnectionID, egress wire.Addr) *traceSlot {
	ts := &traceSlot{key: connKey{src, conn}, egress: egress}
	t.slots[ts.key] = ts
	return ts
}

func (t *tracer) armed(src wire.Addr, conn wire.ConnectionID) *traceSlot {
	ts := t.slots[connKey{src, conn}]
	if ts == nil || ts.seq.Load() == 0 {
		return nil
	}
	return ts
}

// snHook is installed as sn.Config.Trace.
func (t *tracer) snHook(ev telemetry.PacketTrace) {
	if !t.on.Load() {
		return
	}
	ts := t.armed(ev.Src, ev.Conn)
	if ts == nil {
		return
	}
	now := nowNs()
	switch ev.Point {
	case telemetry.TraceRx:
		ts.mark(stRx, now)
	case telemetry.TraceFastPath, telemetry.TraceSlowPath:
		ts.mark(stClassified, now)
	case telemetry.TraceForward:
		ts.mark(stForward, now)
	}
}

// childSpan charges a span inside the module to the packet being handled.
func (t *tracer) childSpan(name string, start, end int64) {
	t.observe(name, end-start)
	if ts := t.inModule.Load(); ts != nil {
		ts.child.Add(end - start)
	}
}

// observe records one timing outside the per-packet stage chain.
func (t *tracer) observe(name string, ns int64) {
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = new(hist)
		t.hists[name] = h
	}
	t.mu.Unlock()
	h.record(ns)
}

// delivered notes a sampled packet's arrival.
func (ts *traceSlot) delivered(t *tracer, seq uint64, now int64) {
	if t == nil || ts.seq.Load() != seq+1 {
		return
	}
	ts.mark(stDelivered, now)
	if ts.parties.Add(1) == 2 {
		ts.finish(t)
	}
}

// sent notes that the generator's Send returned at now.
func (ts *traceSlot) sent(t *tracer, now int64) {
	ts.t[stSendEnd].Store(now)
	if ts.parties.Add(1) == 2 {
		ts.finish(t)
	}
}

// finish closes a sampled packet's trace: it cuts the packet's path into
// stage spans and records them.
func (ts *traceSlot) finish(t *tracer) {
	var v [nStamps]int64
	for i := range v {
		v[i] = ts.t[i].Load()
	}
	seq := ts.seq.Load() - 1
	ts.reset()
	// The SN may see the packet before the sender's Send returns; the
	// send stage then ends where the SN's receive begins.
	if v[stRx] != 0 {
		v[stSendEnd] = min(v[stSendEnd], v[stRx])
	}
	slow := v[stModEnter] != 0
	need := []int{stSched, stSendStart, stSendEnd, stRx, stClassified, stForward, stDelivered}
	if slow {
		need = append(need, stModExit)
		// TraceSlowPath fires after the packet is queued, so the module
		// may already have started; the classify stage ends at whichever
		// came first.
		v[stClassified] = min(v[stClassified], v[stModEnter])
	}
	for _, st := range need {
		if v[st] == 0 {
			t.mu.Lock()
			t.incomplete++
			t.mu.Unlock()
			return
		}
	}
	id := uint64(ts.key.conn)<<40 | seq
	spans := []span{
		{id, "packet", v[stSendStart], v[stDelivered], ""},
		{id, "loadgen.late_us", v[stSched], v[stSendStart], "packet"},
		{id, "host.send_us", v[stSendStart], v[stSendEnd], "packet"},
		{id, "sn.rx_us", v[stSendEnd], v[stRx], "packet"},
		{id, "sn.classify_us", v[stRx], v[stClassified], "packet"},
	}
	if slow {
		spans = append(spans,
			span{id, "sn.dispatch_wait_us", v[stClassified], v[stModEnter], "packet"},
			span{id, "services.handle_us", v[stModEnter], v[stModExit], "packet"},
			span{id, "sn.to_forward_us", v[stModExit], v[stForward], "packet"})
	} else {
		spans = append(spans, span{id, "sn.to_forward_us", v[stClassified], v[stForward], "packet"})
	}
	spans = append(spans, span{id, "sn.egress_us", v[stForward], v[stDelivered], "packet"})
	for _, sp := range spans[2:] {
		d := sp.End - sp.Start
		if sp.Name == "services.handle_us" {
			d -= ts.child.Load() // self time; children are recorded apart
		}
		t.observe(sp.Name, d)
	}
	t.observe("trace.e2e_us", v[stDelivered]-v[stSendStart])
	t.mu.Lock()
	t.samples++
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// metrics reports each span family's p50/p99 and count.
func (t *tracer) metrics(m *metricSet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.hists))
	for n := range t.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := t.hists[n]
		m.add(n+".p50", h.quantileUs(0.50), "us")
		m.add(n+".p99", h.quantileUs(0.99), "us")
		m.add(n+".count", float64(h.n.Load()), "count")
	}
	m.add("trace.samples", float64(t.samples), "count")
	m.add("trace.incomplete", float64(t.incomplete), "count")
	// Each packet's stages add up to its end-to-end time by construction;
	// the sum of the stage medians shows how well they describe the
	// typical packet.
	var sum float64
	for _, n := range stageSpans {
		if h := t.hists[n]; h != nil {
			sum += h.quantileUs(0.5)
		}
	}
	if h := t.hists["trace.e2e_us"]; h != nil && h.n.Load() > 0 {
		m.add("trace.span_sum_share", sum/h.quantileUs(0.5), "ratio")
	}
}

// stageSpans are the contiguous stages a sampled packet is cut into.
var stageSpans = []string{"host.send_us", "sn.rx_us", "sn.classify_us", "sn.dispatch_wait_us",
	"services.handle_us", "rescache.cached_us", "sn.to_forward_us", "sn.egress_us"}

// writeSpans writes every recorded span as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport wraps a netsim.Transport to see the SN's slow-path
// egress sends. It forwards the optional interfaces the program probes
// for, so the traced program takes the same path as the measured one.
type tracedTransport struct {
	netsim.Transport
	batch netsim.BatchSender
	reg   telemetry.Registrable
	t     *tracer
}

var (
	_ netsim.BatchSender    = (*tracedTransport)(nil)
	_ telemetry.Registrable = (*tracedTransport)(nil)
)

func wrapTransport(t *tracer, inner netsim.Transport) (netsim.Transport, error) {
	b, ok1 := inner.(netsim.BatchSender)
	r, ok2 := inner.(telemetry.Registrable)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("iebench: transport %T lacks BatchSender or Registrable; the wrapper would change its path", inner)
	}
	return &tracedTransport{Transport: inner, batch: b, reg: r, t: t}, nil
}

func (w *tracedTransport) sent(dst wire.Addr) {
	if !w.t.on.Load() {
		return
	}
	if ts := w.t.awaitTx.Load(); ts != nil && ts.egress == dst && w.t.awaitTx.CompareAndSwap(ts, nil) {
		ts.mark(stForward, nowNs())
	}
}

func (w *tracedTransport) Send(dg wire.Datagram) error {
	w.sent(dg.Dst)
	return w.Transport.Send(dg)
}

func (w *tracedTransport) SendBatch(dgs []wire.Datagram) (int, error) {
	for i := range dgs {
		w.sent(dgs[i].Dst)
	}
	return w.batch.SendBatch(dgs)
}

func (w *tracedTransport) RegisterTelemetry(r *telemetry.Registry) { w.reg.RegisterTelemetry(r) }

// tracedModule wraps a service module to time its HandlePacket. The
// modules it wraps implement none of sn's optional interfaces
// (ControlHandler, Starter, Stopper); wrapModule refuses any that does.
type tracedModule struct {
	sn.Module
	t *tracer
}

func wrapModule(t *tracer, m sn.Module) (sn.Module, error) {
	if _, ok := m.(sn.ControlHandler); ok {
		return nil, fmt.Errorf("iebench: module %s has a control handler the wrapper does not forward", m.Name())
	}
	if _, ok := m.(sn.Starter); ok {
		return nil, fmt.Errorf("iebench: module %s has a Start the wrapper does not forward", m.Name())
	}
	if _, ok := m.(sn.Stopper); ok {
		return nil, fmt.Errorf("iebench: module %s has a Stop the wrapper does not forward", m.Name())
	}
	return &tracedModule{Module: m, t: t}, nil
}

func (w *tracedModule) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if !w.t.on.Load() {
		return w.Module.HandlePacket(env, pkt)
	}
	ts := w.t.armed(pkt.Src, pkt.Hdr.Conn)
	start := nowNs()
	if ts != nil {
		ts.mark(stModEnter, start)
		w.t.inModule.Store(ts)
	}
	d, err := w.Module.HandlePacket(env, pkt)
	end := nowNs()
	w.t.observe("services.handle_all_us", end-start)
	if ts != nil {
		w.t.inModule.Store(nil)
		ts.t[stModExit].Store(end)
		w.t.awaitTx.Store(ts)
	}
	return d, err
}

// tracedResolver wraps the SN-tier resolution cache handed to ipfwd. It
// implements ipfwd.AsyncResolver exactly as *rescache.Cache does, so the
// module keeps its non-blocking miss path.
type tracedResolver struct {
	inner ipfwd.AsyncResolver
	t     *tracer
}

var _ ipfwd.AsyncResolver = (*tracedResolver)(nil)

func (r *tracedResolver) ResolveAddress(a wire.Addr) (lookup.AddrRecord, error) {
	return r.inner.ResolveAddress(a)
}

func (r *tracedResolver) ResolveCached(a wire.Addr) (lookup.AddrRecord, bool, bool) {
	if !r.t.on.Load() {
		return r.inner.ResolveCached(a)
	}
	start := nowNs()
	rec, ok, neg := r.inner.ResolveCached(a)
	r.t.childSpan("rescache.cached_us", start, nowNs())
	return rec, ok, neg
}

func (r *tracedResolver) ResolveAsync(a wire.Addr, cb func(lookup.AddrRecord, error)) bool {
	if !r.t.on.Load() {
		return r.inner.ResolveAsync(a, cb)
	}
	start := nowNs()
	return r.inner.ResolveAsync(a, func(rec lookup.AddrRecord, err error) {
		r.t.observe("rescache.fill_us", nowNs()-start)
		cb(rec, err)
	})
}
