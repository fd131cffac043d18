package lab

import (
	"fmt"
	"sync"

	"interedge/internal/edomain"
	"interedge/internal/host"
	"interedge/internal/lookup"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Placement binds one edomain's consistent-hash ring to its hosts: it
// places each adopted host on the ring owner, re-registers the host's
// lookup record whenever its placement changes (so the resolution-cache
// hierarchy serves the new SN mapping within one publish instead of one
// lease), drives live drains, and absorbs failovers after an unannounced
// SN death.
type Placement struct {
	t  *Topology
	ed *Edomain

	mu     sync.Mutex
	hosts  map[wire.Addr]*host.Host
	placed map[wire.Addr]wire.Addr // host -> serving SN

	// moves serializes DrainSN and sweep. Both move hosts off an SN, and
	// placed changes only once a move is done, so a sweep running during
	// a drain would otherwise hand off the same host a second time and
	// fail the drain.
	moves sync.Mutex

	cancel func()
	done   chan struct{}
}

// NewPlacement creates the placement controller for an edomain and starts
// watching its ring. The ring-change counter registers into the gateway
// SN's telemetry so the control-plane "metrics" op exposes it.
func (t *Topology) NewPlacement(ed *Edomain) *Placement {
	p := &Placement{
		t:      t,
		ed:     ed,
		hosts:  make(map[wire.Addr]*host.Host),
		placed: make(map[wire.Addr]wire.Addr),
	}
	// Ignore a duplicate-registration error: a rebuilt controller over the
	// same edomain reuses the gateway's existing instrument.
	_ = ed.Gateway().Telemetry().Register(
		telemetry.NewCounterFunc("edomain_ring_changes_total", ed.Core.RingChanges))
	_ = ed.Gateway().Telemetry().Register(
		telemetry.NewCounterFunc("edomain_ring_watch_dropped_total", ed.Core.RingWatchDrops))
	_ = ed.Gateway().Telemetry().Register(
		telemetry.NewGaugeFunc("edomain_placement_balance_x1000", p.balanceX1000))
	_, ch, cancel := ed.Core.WatchRing()
	p.cancel = cancel
	p.done = make(chan struct{})
	go p.watch(ch)
	t.closers = append(t.closers, func() error { p.Close(); return nil })
	return p
}

// balanceX1000 is the placement-balance gauge source: max hosts-per-SN
// over mean hosts-per-active-SN, scaled by 1000 (registries are integer).
// A perfectly even fleet reads 1000; 2000 means the hottest SN carries
// twice the mean. An empty fleet or ring reads 1000 so an idle gauge never
// trips a balance gate.
func (p *Placement) balanceX1000() int64 {
	active := p.ed.Core.ActiveSNs()
	p.mu.Lock()
	counts := make(map[wire.Addr]int, len(active))
	total := 0
	for _, sn := range p.placed {
		counts[sn]++
		total++
	}
	p.mu.Unlock()
	if len(active) == 0 || total == 0 {
		return 1000
	}
	maxPerSN := 0
	for _, c := range counts {
		if c > maxPerSN {
			maxPerSN = c
		}
	}
	mean := float64(total) / float64(len(active))
	return int64(float64(maxPerSN) / mean * 1000)
}

// Close releases the ring watch.
func (p *Placement) Close() {
	if p.cancel != nil {
		p.cancel()
		<-p.done
		p.cancel = nil
	}
}

// AdoptHost places an existing host under ring control: associates it
// with the ring owner for its address and publishes the mapping.
func (p *Placement) AdoptHost(h *host.Host) (wire.Addr, error) {
	owner, ok := p.ed.Core.PlaceHost(h.Addr())
	if !ok {
		return wire.Addr{}, fmt.Errorf("lab: edomain %s has no active SN to place %s", p.ed.ID, h.Addr())
	}
	if err := h.Associate(owner); err != nil {
		return wire.Addr{}, err
	}
	p.mu.Lock()
	p.hosts[h.Addr()] = h
	p.placed[h.Addr()] = owner
	p.mu.Unlock()
	return owner, p.publish(h, owner)
}

// PlacedOn reports the SN an adopted host is currently placed on.
func (p *Placement) PlacedOn(hostAddr wire.Addr) (wire.Addr, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.placed[hostAddr]
	return a, ok
}

// NewPlacedHost creates a host in the controller's edomain, placed by the
// ring rather than by an explicit SN index.
func (t *Topology) NewPlacedHost(p *Placement, cfgEdit ...func(*host.Config)) (*host.Host, error) {
	h, err := t.NewHostAt(t.alloc.Next().String(), cfgEdit...)
	if err != nil {
		return nil, err
	}
	if err := t.Fabric.RegisterAddr(p.ed.ID, h.Addr()); err != nil {
		return nil, err
	}
	if _, err := p.AdoptHost(h); err != nil {
		return nil, err
	}
	return h, nil
}

// DrainSN live-drains one SN: it leaves placement (BeginDrain), every
// adopted host it serves is handed off — established pipe state moves to
// the new ring owner without a re-handshake — the moved mappings are
// republished, and the SN finishes down (FinishDrain), ready to be
// stopped or reactivated. Hosts whose handoff fails fall back to full
// re-establishment against their published successor.
func (p *Placement) DrainSN(snAddr wire.Addr) error {
	node, err := p.t.snByAddr(snAddr)
	if err != nil {
		return err
	}
	p.moves.Lock()
	defer p.moves.Unlock()
	if err := p.ed.Core.BeginDrain(snAddr); err != nil {
		return err
	}
	moved := make(map[wire.Addr]wire.Addr)
	drainErr := node.Drain(func(peer wire.Addr) (wire.Addr, bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.placed[peer] != snAddr {
			return wire.Addr{}, false
		}
		tgt, ok := p.ed.Core.PlaceHost(peer)
		if !ok || tgt == snAddr {
			return wire.Addr{}, false
		}
		moved[peer] = tgt
		return tgt, true
	})
	p.mu.Lock()
	type pub struct {
		h  *host.Host
		sn wire.Addr
	}
	pubs := make([]pub, 0, len(moved))
	for hostAddr, tgt := range moved {
		p.placed[hostAddr] = tgt
		pubs = append(pubs, pub{p.hosts[hostAddr], tgt})
	}
	p.mu.Unlock()
	for _, pb := range pubs {
		if err := p.publish(pb.h, pb.sn); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	p.ed.Core.FinishDrain(snAddr)
	return drainErr
}

// ReportDown records an unannounced SN death (normally fed by sibling
// dead-peer detection); the resulting ring change re-places its hosts by
// full re-establishment. Exposed for tests and the soak runner, which
// kill nodes out from under the fleet.
func (p *Placement) ReportDown(snAddr wire.Addr) {
	p.ed.Core.ReportSNDown(snAddr)
}

// Reactivate returns a drained or recovered SN to placement; hosts whose
// ring owner it is again migrate back by live handoff.
func (p *Placement) Reactivate(snAddr wire.Addr) error {
	return p.ed.Core.ReactivateSN(snAddr)
}

// watch re-places hosts after ring changes. Draining transitions are
// skipped: DrainSN moves those hosts synchronously so the drain counters
// and the ring change stay one operation; every other change (death,
// reactivation, registration) is handled by sweeping placements against
// the current ring — events are best-effort, so the sweep never trusts
// the event payload.
func (p *Placement) watch(ch <-chan edomain.RingEvent) {
	defer close(p.done)
	for ev := range ch {
		if ev.State == edomain.SNDraining {
			continue
		}
		p.sweep()
	}
}

// sweep moves every adopted host whose ring owner changed. A host leaving
// a live SN migrates by handoff (no re-handshake); a host leaving a dead
// SN is re-associated from scratch — the successor counts one failover.
// PlacedOn reports the new SN only once the host has moved and its
// record is republished, so a caller that sees the placement converge
// also sees lookup agree with it.
func (p *Placement) sweep() {
	type move struct {
		h        *host.Host
		from, to wire.Addr
	}
	p.moves.Lock()
	defer p.moves.Unlock()
	p.mu.Lock()
	var moves []move
	for addr, h := range p.hosts {
		want, ok := p.ed.Core.PlaceHost(addr)
		if !ok {
			continue
		}
		if cur := p.placed[addr]; cur != want {
			moves = append(moves, move{h, cur, want})
		}
	}
	p.mu.Unlock()
	for _, m := range moves {
		if p.ed.Core.SNStateOf(m.from) == edomain.SNDown {
			p.failover(m.h, m.from, m.to)
		} else if node, err := p.t.snByAddr(m.from); err == nil {
			if err := node.HandoffPipe(m.h.Addr(), m.to); err != nil {
				p.failover(m.h, m.from, m.to)
			}
		}
		_ = p.publish(m.h, m.to)
		p.mu.Lock()
		p.placed[m.h.Addr()] = m.to
		p.mu.Unlock()
	}
}

// failover is the no-pipe-left path: full re-establishment against the
// successor via the existing handshake/backoff machinery.
func (p *Placement) failover(h *host.Host, from, to wire.Addr) {
	if err := h.Reassociate(to); err != nil {
		return
	}
	h.Disassociate(from)
	// Connections pinned at the dead SN would keep addressing the corpse:
	// repoint them at the successor the host just re-established against.
	h.Repoint(from, to)
	if node, err := p.t.snByAddr(to); err == nil {
		node.NoteFailover()
	}
}

// publish re-registers the host's signed address record with its current
// first-hop SN. The global service fans the update out to every watching
// resolution-cache tier, which applies it in place — the new mapping is
// visible within one publish, not one lease.
func (p *Placement) publish(h *host.Host, sn wire.Addr) error {
	sns := []wire.Addr{sn}
	rec := lookup.AddrRecord{Addr: h.Addr(), Owner: h.Identity().PublicKey(), SNs: sns}
	sig := lookup.SignAddrRecord(h.Identity().Signing, h.Addr(), sns)
	return p.t.Global.RegisterAddress(rec, sig)
}
