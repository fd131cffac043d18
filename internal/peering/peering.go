// Package peering implements inter-edomain connectivity (§3.2): every
// edomain peers directly with every other edomain over a long-lived ILP
// pipe between designated gateway SNs, each SN knows which local SN
// reaches each foreign edomain, and — per §5 — all of this is
// settlement-free: the ledger records traffic between edomains and the
// invariant that no money changes hands.
//
// Transit packets are encapsulated under the SvcPeering service ID: the
// ILP header's service data carries the final destination SN and original
// source, and the payload carries the inner ILP header plus inner payload.
// Gateways install decision-cache rules for transit flows, so steady-state
// inter-edomain forwarding runs on the fast path.
package peering

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"interedge/internal/lookup"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// EdomainID aliases lookup.EdomainID.
type EdomainID = lookup.EdomainID

// Errors returned by the fabric.
var (
	ErrUnknownEdomain = errors.New("peering: address not in any known edomain")
	ErrNoGateway      = errors.New("peering: no gateway pair for edomain pair")
	ErrBadTransit     = errors.New("peering: malformed transit encapsulation")
)

type edomainInfo struct {
	id       EdomainID
	gateways []wire.Addr
	sns      map[wire.Addr]struct{}
}

type pairKey struct{ lo, hi EdomainID }

func mkPair(a, b EdomainID) pairKey {
	if a < b {
		return pairKey{a, b}
	}
	return pairKey{b, a}
}

// gatewayPair records the SN on each side of one edomain-pair pipe.
type gatewayPair struct {
	gw map[EdomainID]wire.Addr
}

// TransferRecord is one edomain pair's traffic tally.
type TransferRecord struct {
	From    EdomainID
	To      EdomainID
	Packets uint64
	Bytes   uint64
	// FeesOwed is the money owed for this traffic. Per §5 peering between
	// edomains is settlement-free, so this is always zero; it exists so
	// audits can assert the invariant.
	FeesOwed uint64
}

// routeView is the immutable routing state packet-path reads consult:
// the gateway-pair table plus the direct-connect flag. Topology writes
// republish it atomically (RCU), so NextHop and the gateway lookups are
// lock-free on every SN while registrations serialize behind the write
// mutex — the same snapshot-read contract as the lookup service.
type routeView struct {
	pairs map[pairKey]gatewayPair
	// directConnect enables the §3.2 optimization: SNs may "establish,
	// on demand, a connection directly to the destination's associated
	// SN in another edomain" instead of routing via gateways.
	directConnect bool
}

// Fabric is the global view of edomain peering used by SNs and services.
// In a production deployment each edomain would hold its slice of this
// state; the simulator shares one fabric the way it shares the substrate.
type Fabric struct {
	mu       sync.Mutex // serializes topology writes
	edomains map[EdomainID]*edomainInfo

	// byAddr maps every registered address to its edomain. Written only
	// under mu; probed lock-free by EdomainOf on the packet path.
	byAddr sync.Map // wire.Addr -> EdomainID
	routes atomic.Pointer[routeView]

	// The settlement ledger is write-heavy (one tally per transit
	// packet on the slow path) and shares no state with routing, so it
	// contends on its own lock.
	ledgerMu sync.Mutex
	ledger   map[pairKey]*ledgerEntry
}

type ledgerEntry struct {
	packets map[EdomainID]uint64 // keyed by the sending edomain
	bytes   map[EdomainID]uint64
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	f := &Fabric{
		edomains: make(map[EdomainID]*edomainInfo),
		ledger:   make(map[pairKey]*ledgerEntry),
	}
	f.routes.Store(&routeView{pairs: make(map[pairKey]gatewayPair)})
	return f
}

// publishRoutesLocked clones the current route view, applies mutate, and
// swaps the result in. Caller holds mu.
func (f *Fabric) publishRoutesLocked(mutate func(*routeView)) {
	old := f.routes.Load()
	next := &routeView{
		pairs:         make(map[pairKey]gatewayPair, len(old.pairs)+1),
		directConnect: old.directConnect,
	}
	for k, v := range old.pairs {
		next.pairs[k] = v
	}
	mutate(next)
	f.routes.Store(next)
}

// SetDirectConnect toggles the direct SN-to-SN optimization.
func (f *Fabric) SetDirectConnect(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.publishRoutesLocked(func(v *routeView) { v.directConnect = on })
}

// DirectConnect reports whether the optimization is enabled. Lock-free.
func (f *Fabric) DirectConnect() bool {
	return f.routes.Load().directConnect
}

// AddEdomain registers an edomain with its gateway SNs (which are also
// registered as member SNs).
func (f *Fabric) AddEdomain(id EdomainID, gateways ...wire.Addr) error {
	if len(gateways) == 0 {
		return fmt.Errorf("peering: edomain %s needs at least one gateway", id)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.edomains[id]; ok {
		return fmt.Errorf("peering: edomain %s already registered", id)
	}
	info := &edomainInfo{id: id, gateways: append([]wire.Addr(nil), gateways...), sns: make(map[wire.Addr]struct{})}
	for _, g := range gateways {
		info.sns[g] = struct{}{}
		f.byAddr.Store(g, id)
	}
	f.edomains[id] = info
	return nil
}

// RegisterAddr places an SN or host address inside an edomain (hosts
// "reside in" the edomain of their first-hop SN, §3.1).
func (f *Fabric) RegisterAddr(id EdomainID, addr wire.Addr) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	info, ok := f.edomains[id]
	if !ok {
		return fmt.Errorf("peering: unknown edomain %s", id)
	}
	info.sns[addr] = struct{}{}
	f.byAddr.Store(addr, id)
	return nil
}

// EdomainOf returns the edomain containing addr. Lock-free: it runs for
// every transit packet that reaches a gateway's slow path.
func (f *Fabric) EdomainOf(addr wire.Addr) (EdomainID, bool) {
	v, ok := f.byAddr.Load(addr)
	if !ok {
		return "", false
	}
	return v.(EdomainID), true
}

// Edomains lists registered edomains.
func (f *Fabric) Edomains() []EdomainID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]EdomainID, 0, len(f.edomains))
	for id := range f.edomains {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GatewayOf returns the designated gateway SN of fromEd for traffic toward
// toEd. Lock-free.
func (f *Fabric) GatewayOf(fromEd, toEd EdomainID) (wire.Addr, error) {
	pair, ok := f.routes.Load().pairs[mkPair(fromEd, toEd)]
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s<->%s", ErrNoGateway, fromEd, toEd)
	}
	return pair.gw[fromEd], nil
}

// RemoteGatewayOf returns the gateway SN on toEd's side of the
// fromEd<->toEd pipe — the entry point for traffic fanned into toEd.
// Lock-free.
func (f *Fabric) RemoteGatewayOf(fromEd, toEd EdomainID) (wire.Addr, error) {
	pair, ok := f.routes.Load().pairs[mkPair(fromEd, toEd)]
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s<->%s", ErrNoGateway, fromEd, toEd)
	}
	return pair.gw[toEd], nil
}

// EstablishMesh creates the required full mesh: for every pair of
// edomains, designate one gateway SN on each side and invoke connect to
// bring up the long-lived pipe ("we require that every edomain peers
// directly with all other edomains via an ILP connection", §3.2).
func (f *Fabric) EstablishMesh(connect func(a, b wire.Addr) error) error {
	f.mu.Lock()
	existing := f.routes.Load().pairs
	ids := make([]EdomainID, 0, len(f.edomains))
	for id := range f.edomains {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type job struct {
		key  pairKey
		a, b wire.Addr
	}
	var jobs []job
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			key := mkPair(ids[i], ids[j])
			if _, done := existing[key]; done {
				continue
			}
			// Spread load across gateways deterministically.
			gi := f.edomains[ids[i]]
			gj := f.edomains[ids[j]]
			a := gi.gateways[j%len(gi.gateways)]
			b := gj.gateways[i%len(gj.gateways)]
			jobs = append(jobs, job{key: key, a: a, b: b})
		}
	}
	f.mu.Unlock()

	for _, jb := range jobs {
		if err := connect(jb.a, jb.b); err != nil {
			return fmt.Errorf("peering: connect %s<->%s: %w", jb.a, jb.b, err)
		}
		edA, _ := f.EdomainOf(jb.a)
		edB, _ := f.EdomainOf(jb.b)
		f.mu.Lock()
		f.publishRoutesLocked(func(v *routeView) {
			v.pairs[jb.key] = gatewayPair{gw: map[EdomainID]wire.Addr{edA: jb.a, edB: jb.b}}
		})
		f.mu.Unlock()
	}
	return nil
}

// MeshComplete reports whether every edomain pair has a gateway pipe.
func (f *Fabric) MeshComplete() bool {
	f.mu.Lock()
	n := len(f.edomains)
	f.mu.Unlock()
	return len(f.routes.Load().pairs) == n*(n-1)/2
}

// NextHop computes where the SN at 'from' should send a transit packet
// bound for finalDst: stay inside the edomain, hop to the local gateway,
// cross the gateway pipe, or complete delivery. Lock-free: one route
// snapshot plus two byAddr probes, so every gateway's slow path decides
// without contending on fleet-shared state.
func (f *Fabric) NextHop(from, finalDst wire.Addr) (wire.Addr, error) {
	edFrom, ok := f.EdomainOf(from)
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s", ErrUnknownEdomain, from)
	}
	edDst, ok := f.EdomainOf(finalDst)
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s", ErrUnknownEdomain, finalDst)
	}
	if edFrom == edDst {
		return finalDst, nil
	}
	routes := f.routes.Load()
	if routes.directConnect {
		// §3.2 optimization: connect straight to the destination SN.
		return finalDst, nil
	}
	pair, ok := routes.pairs[mkPair(edFrom, edDst)]
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s<->%s", ErrNoGateway, edFrom, edDst)
	}
	localGW := pair.gw[edFrom]
	if from != localGW {
		return localGW, nil
	}
	return pair.gw[edDst], nil
}

// RecordTransfer tallies transit traffic crossing between two edomains.
func (f *Fabric) RecordTransfer(fromEd, toEd EdomainID, bytes int) {
	f.ledgerMu.Lock()
	defer f.ledgerMu.Unlock()
	key := mkPair(fromEd, toEd)
	e, ok := f.ledger[key]
	if !ok {
		e = &ledgerEntry{packets: make(map[EdomainID]uint64), bytes: make(map[EdomainID]uint64)}
		f.ledger[key] = e
	}
	e.packets[fromEd]++
	e.bytes[fromEd] += uint64(bytes)
}

// Ledger reports per-direction transfer records. FeesOwed is zero on every
// record: edomain peering is settlement-free by architecture (§5).
func (f *Fabric) Ledger() []TransferRecord {
	f.ledgerMu.Lock()
	defer f.ledgerMu.Unlock()
	var out []TransferRecord
	for key, e := range f.ledger {
		for _, dir := range []struct{ from, to EdomainID }{{key.lo, key.hi}, {key.hi, key.lo}} {
			if e.packets[dir.from] == 0 {
				continue
			}
			out = append(out, TransferRecord{
				From:     dir.from,
				To:       dir.to,
				Packets:  e.packets[dir.from],
				Bytes:    e.bytes[dir.from],
				FeesOwed: 0,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// --- Transit encapsulation ------------------------------------------------

// transitMeta is the SvcPeering header data: final destination SN and
// original source address.
const transitMetaSize = 32

// EncodeTransit builds the SvcPeering encapsulation of an inner packet.
func EncodeTransit(finalDst, origSrc wire.Addr, inner *wire.ILPHeader, innerPayload []byte) (svcData, payload []byte, err error) {
	svcData = make([]byte, transitMetaSize)
	d := finalDst.As16()
	s := origSrc.As16()
	copy(svcData[0:16], d[:])
	copy(svcData[16:32], s[:])

	innerHdr, err := inner.Encode()
	if err != nil {
		return nil, nil, err
	}
	payload = make([]byte, 2+len(innerHdr)+len(innerPayload))
	binary.BigEndian.PutUint16(payload[0:2], uint16(len(innerHdr)))
	copy(payload[2:], innerHdr)
	copy(payload[2+len(innerHdr):], innerPayload)
	return svcData, payload, nil
}

// DecodeTransitMeta parses the SvcPeering header data.
func DecodeTransitMeta(svcData []byte) (finalDst, origSrc wire.Addr, err error) {
	if len(svcData) != transitMetaSize {
		return wire.Addr{}, wire.Addr{}, ErrBadTransit
	}
	var d, s [16]byte
	copy(d[:], svcData[0:16])
	copy(s[:], svcData[16:32])
	return addrFrom16(d), addrFrom16(s), nil
}

// DecodeTransitPayload parses the inner packet from a transit payload.
func DecodeTransitPayload(payload []byte) (wire.ILPHeader, []byte, error) {
	if len(payload) < 2 {
		return wire.ILPHeader{}, nil, ErrBadTransit
	}
	hlen := int(binary.BigEndian.Uint16(payload[0:2]))
	if len(payload) < 2+hlen {
		return wire.ILPHeader{}, nil, ErrBadTransit
	}
	var hdr wire.ILPHeader
	if _, err := hdr.DecodeFromBytes(payload[2 : 2+hlen]); err != nil {
		return wire.ILPHeader{}, nil, err
	}
	return hdr, payload[2+hlen:], nil
}

// --- Forwarder module ------------------------------------------------------

// Injector re-inserts a decapsulated packet into the local SN's
// pipe-terminus.
type Injector func(src wire.Addr, hdr wire.ILPHeader, payload []byte)

// Forwarder is the SvcPeering service module deployed on every SN: it
// forwards transit packets along the gateway path and decapsulates them at
// the destination SN.
type Forwarder struct {
	fabric *Fabric
	inject Injector
}

// NewForwarder creates the peering forwarder for one SN.
func NewForwarder(fabric *Fabric, inject Injector) *Forwarder {
	return &Forwarder{fabric: fabric, inject: inject}
}

// Service implements sn.Module.
func (fw *Forwarder) Service() wire.ServiceID { return wire.SvcPeering }

// Name implements sn.Module.
func (fw *Forwarder) Name() string { return "peering-forwarder" }

// Version implements sn.Module.
func (fw *Forwarder) Version() string { return "1" }

// HandlePacket implements sn.Module.
func (fw *Forwarder) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	finalDst, origSrc, err := DecodeTransitMeta(pkt.Hdr.Data)
	if err != nil {
		return sn.Decision{}, err
	}
	local := env.LocalAddr()

	// Tally the edomain crossing for the settlement-free ledger.
	if edHere, ok := fw.fabric.EdomainOf(local); ok {
		if edSrc, ok2 := fw.fabric.EdomainOf(pkt.Src); ok2 && edSrc != edHere {
			fw.fabric.RecordTransfer(edSrc, edHere, len(pkt.Payload))
		}
	}

	if finalDst == local {
		innerHdr, innerPayload, err := DecodeTransitPayload(pkt.Payload)
		if err != nil {
			return sn.Decision{}, err
		}
		fw.inject(origSrc, innerHdr, innerPayload)
		return sn.Decision{}, nil
	}
	next, err := fw.fabric.NextHop(local, finalDst)
	if err != nil {
		return sn.Decision{}, err
	}
	return sn.Decision{
		Forwards: []sn.Forward{{Dst: next}},
		// Transit flows are cacheable: later packets of this flow bypass
		// the module entirely.
		Rules: []sn.Rule{{
			Key:    pkt.Key(),
			Action: cache.Action{Forward: []wire.Addr{next}},
		}},
	}, nil
}

// SendTransit encapsulates and launches an inner packet from the SN at
// env toward the destination SN, using the gateway path (or a direct pipe
// when the optimization is on). The outer packet's connection ID names
// the transit flow (see transitConn) so it stays cacheable per flow.
func SendTransit(env sn.Env, fabric *Fabric, finalDst, origSrc wire.Addr, inner *wire.ILPHeader, innerPayload []byte) error {
	svcData, payload, err := EncodeTransit(finalDst, origSrc, inner, innerPayload)
	if err != nil {
		return err
	}
	next, err := fabric.NextHop(env.LocalAddr(), finalDst)
	if err != nil {
		return err
	}
	outer := wire.ILPHeader{Service: wire.SvcPeering, Conn: transitConn(finalDst, origSrc, inner), Data: svcData}
	return env.Send(next, &outer, payload)
}

// transitConn derives the outer connection ID of a transit flow from its
// final destination, original source and inner service and connection
// (FNV-1a). Every SN on the gateway path caches its forward under
// (previous hop, SvcPeering, conn), and hosts behind one SN pick inner
// connection IDs independently: keyed on the inner ID alone, one flow's
// cached hop steered every colliding flow through the same previous hop,
// and two such rules pointing at each other held packets in a loop.
func transitConn(finalDst, origSrc wire.Addr, inner *wire.ILPHeader) wire.ConnectionID {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	d, s := finalDst.As16(), origSrc.As16()
	for _, b := range d {
		h = (h ^ uint64(b)) * prime
	}
	for _, b := range s {
		h = (h ^ uint64(b)) * prime
	}
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(byte(uint32(inner.Service)>>(8*i)))) * prime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(uint64(inner.Conn)>>(8*i)))) * prime
	}
	return wire.ConnectionID(h)
}
