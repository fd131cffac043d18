package main

import (
	"fmt"
	"math/rand/v2"

	"interedge/internal/handshake"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/netsim"
	"interedge/internal/services/ipfwd"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

const (
	churnReceivers   = 64
	churnEstablished = 16  // long-lived flows per sender, for unloaded latency
	churnFlowPkts    = 16  // packets per short-lived flow
	churnReregEvery  = 8   // 1 flow in 8 first re-registers its destination
	churnAttachEvery = 64  // 1 flow in 64 comes from a freshly attached host
	churnZipfS       = 1.1 // receiver popularity skew
	churnIdentities  = 16  // pre-generated identities for attaching hosts
)

// churn is one sender's flow source: every churnFlowPkts packets it opens
// a new connection to a zipf-chosen receiver, sometimes re-registering
// the receiver's address record or attaching a new host first.
type churn struct {
	g         *generator
	topo      *lab.Topology
	ed        *lab.Edomain
	sender    *host.Host
	receivers []*host.Host
	zipf      *rand.Zipf
	ids       []handshake.Identity
	wrap      func(netsim.Transport) (netsim.Transport, error)
	t         *tracer // nil when untraced

	cur      *flow
	left     int
	flows    int
	attached *host.Host // the last attached host, closed at the next attach
	attaches uint32     // numbers the attaching hosts' addresses
}

func (c *churn) observe(name string, start int64) {
	if c.t != nil {
		c.t.observe(name, nowNs()-start)
	}
}

// register (re-)publishes h's signed address record, placing it at sn.
func (c *churn) register(h *host.Host, sn wire.Addr) error {
	sns := []wire.Addr{sn}
	rec := lookup.AddrRecord{Addr: h.Addr(), Owner: h.Identity().PublicKey(), SNs: sns}
	sig := lookup.SignAddrRecord(h.Identity().Signing, h.Addr(), sns)
	start := nowNs()
	err := c.topo.Global.RegisterAddress(rec, sig)
	c.observe("lookup.register_us", start)
	return err
}

// attach brings up a host with a pre-generated identity for one flow.
func (c *churn) attach() (*host.Host, int64, error) {
	if c.attached != nil {
		c.attached.Close()
		c.attached = nil
	}
	c.attaches++
	addr := wire.MustAddr(fmt.Sprintf("fd00:a::%x:%x", c.g.id, c.attaches))
	tr, err := c.topo.Net.Attach(addr)
	if err != nil {
		return nil, 0, err
	}
	wrapped, err := c.wrap(tr)
	if err != nil {
		tr.Close()
		return nil, 0, err
	}
	tr = wrapped
	h, err := host.New(host.Config{Transport: tr, Identity: c.ids[c.flows%len(c.ids)]})
	if err != nil {
		tr.Close()
		return nil, 0, err
	}
	c.attached = h
	start := nowNs()
	if err := h.Associate(c.ed.SNs[0].Addr()); err != nil {
		return nil, 0, err
	}
	c.observe("host.associate_us", start)
	return h, start, c.register(h, c.ed.SNs[0].Addr())
}

// open starts a flow from sender to dst; a failure to open leaves a flow
// whose every send fails, so its packets count as send errors.
func (c *churn) open(sender *host.Host, dst *host.Host, attachStart int64, setupErr error) *flow {
	f := &flow{dst: dst.Addr(), attachStart: attachStart}
	var conn *host.Conn
	err := setupErr
	if err == nil {
		conn, err = sender.NewConn(wire.SvcIPFwd, host.WithBuffer(1))
	}
	if err != nil {
		f.send = func([]byte) error { return err }
	} else {
		data := ipfwd.DestData(dst.Addr())
		f.conn.Store(uint64(conn.ID()))
		f.send = func(p []byte) error { return conn.Send(data, p) }
	}
	c.g.addFlow(f)
	return f
}

// next returns the flow for the next packet.
func (c *churn) next() *flow {
	if c.cur != nil && c.left > 0 {
		c.left--
		return c.cur
	}
	c.flows++
	dst := c.receivers[c.zipf.Uint64()]
	var err error
	if c.flows%churnReregEvery == 0 {
		err = c.register(dst, c.ed.SNs[1].Addr())
	}
	sender, attachStart := c.sender, int64(0)
	if err == nil && c.flows%churnAttachEvery == 0 {
		sender, attachStart, err = c.attach()
	}
	c.cur, c.left = c.open(sender, dst, attachStart, err), churnFlowPkts-1
	return c.cur
}

// buildChurn builds one edomain with two SNs running ipfwd over their
// SN-tier resolution caches, two senders behind SN0 and 64 receivers
// behind SN1.
func buildChurn(seed uint64, traced bool) (_ *rig, err error) {
	r := newRig(traced)
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	t := r.sink.tracer
	wrap := func(tr netsim.Transport) (netsim.Transport, error) { return tr, nil }
	var opts []lab.Option
	if traced {
		wrap = func(tr netsim.Transport) (netsim.Transport, error) { return wrapTransport(t, tr) }
		opts = append(opts,
			lab.WithSNConfig(func(c *sn.Config) { c.Trace = t.snHook }),
			lab.WithTransportWrap(func(tr netsim.Transport) netsim.Transport {
				w, werr := wrapTransport(t, tr)
				if werr != nil {
					panic(werr) // the fabric transport implements both interfaces
				}
				return w
			}))
	}
	topo := lab.New(opts...)
	r.closers = append(r.closers, topo.Close)
	r.regs["net"] = topo.Net.Telemetry()
	lookupReg := telemetry.NewRegistry()
	topo.Global.RegisterTelemetry(lookupReg)
	r.regs["lookup"] = lookupReg
	ed, err := topo.AddEdomain("churn", 2, func(node *sn.SN, ed *lab.Edomain) error {
		var res ipfwd.AsyncResolver = topo.NewNodeResolver(ed, node)
		if !traced {
			return node.Register(ipfwd.New(res, topo.Fabric))
		}
		mod, werr := wrapModule(t, ipfwd.New(&tracedResolver{inner: res, t: t}, topo.Fabric))
		if werr != nil {
			return werr
		}
		return node.Register(mod)
	})
	if err != nil {
		return nil, err
	}
	if err := topo.Mesh(); err != nil {
		return nil, err
	}
	r.regs["sn0"], r.regs["sn1"] = ed.SNs[0].Telemetry(), ed.SNs[1].Telemetry()
	receivers := make([]*host.Host, churnReceivers)
	for i := range receivers {
		var self wire.Addr
		h, err := topo.NewHost(ed, 1, func(c *host.Config) {
			c.FastHandler = func(_ wire.Addr, hdr wire.ILPHeader, payload []byte) {
				r.sink.deliver(self, hdr.Conn, payload)
			}
		})
		if err != nil {
			return nil, err
		}
		self = h.Addr()
		receivers[i] = h
	}
	ids := make([]handshake.Identity, churnIdentities)
	for i := range ids {
		if ids[i], err = handshake.NewIdentity(); err != nil {
			return nil, err
		}
	}
	for range ingressHosts {
		h, err := topo.NewHost(ed, 0)
		if err != nil {
			return nil, err
		}
		g := r.addGen(seed, 256)
		c := &churn{g: g, topo: topo, ed: ed, sender: h, receivers: receivers, ids: ids, wrap: wrap, t: t}
		c.zipf = rand.NewZipf(g.rng, churnZipfS, 1, churnReceivers-1)
		r.closers = append(r.closers, func() {
			if c.attached != nil {
				c.attached.Close()
			}
		})
		for range churnEstablished {
			g.active = append(g.active, c.open(h, receivers[c.zipf.Uint64()], 0, nil))
		}
		for range traceConns {
			f := c.open(h, receivers[c.zipf.Uint64()], 0, nil)
			if traced {
				f.trace = t.reserve(h.Addr(), wire.ConnectionID(f.conn.Load()), f.dst)
			}
			g.traced = append(g.traced, f)
		}
		g.stream = c.next
	}
	first, attach := new(hist), new(hist)
	r.sink.first.Store(first)
	r.sink.attach.Store(attach)
	return r, nil
}
