package main

import (
	"fmt"

	"interedge/internal/handshake"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/netsim"
	"interedge/internal/services/null"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// workload is one named traffic mix.
type workload struct {
	name    string
	why     string
	payload int // bytes per packet
	// loadedRate is the open-loop offered rate in packets/s for the loaded
	// phase: a fixed constant (about 45% of the delivered_pps measured on
	// a 2-core Xeon), never derived at run time, so a slower program shows
	// as higher loaded latency rather than as a lighter load.
	loadedRate float64
	build      func(seed uint64, traced bool) (*rig, error)
	// listed workloads run on every change; an unlisted one is runnable
	// by name but is not a gate (see README.md).
	listed bool
}

// rig is a built topology with its generators and receivers.
type rig struct {
	sink    *sink
	gens    []*generator
	regs    map[string]*telemetry.Registry // role → registry, read for counts
	closers []func()
}

func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

func newRig(traced bool) *rig {
	r := &rig{sink: &sink{}, regs: make(map[string]*telemetry.Registry)}
	if traced {
		r.sink.tracer = newTracer()
	}
	r.sink.cur.Store(new(hist))
	return r
}

func (r *rig) addGen(seed uint64, payload int) *generator {
	g := newGenerator(len(r.gens), seed, payload, r.sink)
	r.gens = append(r.gens, g)
	r.sink.gens = r.gens
	return g
}

const (
	fastpathConns = 1024 // per ingress host
	slowpathConns = 64   // per ingress host
	traceConns    = 2    // per ingress host, reserved for sampled packets
	ingressHosts  = 2    // one per generator goroutine
)

var workloads = []*workload{
	{
		name:       "fastpath-64b",
		why:        "smallest packets on real loopback UDP, every flow a decision-cache hit: per-packet transport, pipe and PSP cost (Table 1 no-service/plain)",
		payload:    64,
		loadedRate: 60000,
		build:      buildFastpath,
		listed:     true,
	},
	{
		name:       "slowpath-enclave-1k",
		why:        "1 KiB packets through the null module over IPC inside the enclave, no rules: module dispatch and byte-proportional crypto (Table 1 null-service/enclave)",
		payload:    1024,
		loadedRate: 12000,
		build:      buildSlowpath,
		listed:     true,
	},
	{
		name:       "ipfwd-churn",
		why:        "short ipfwd flows across two SNs: decision-cache inserts and invalidations, rescache fills, lookup writes and handshakes inside the run",
		payload:    256,
		loadedRate: 9000,
		build:      buildChurn,
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// buildFastpath stands up one SN, two ingress hosts and one egress host,
// each on its own loopback UDP socket (what interedge-sn deploys), and
// installs a forwarding rule for every flow so all packets hit the cache.
func buildFastpath(seed uint64, traced bool) (_ *rig, err error) {
	r := newRig(traced)
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	dir := netsim.NewUDPDirectory()
	attach := func(addr string) (netsim.Transport, error) {
		tr, err := netsim.NewUDPTransport(wire.MustAddr(addr), "127.0.0.1:0", dir)
		if err != nil || !traced {
			return tr, err
		}
		w, err := wrapTransport(r.sink.tracer, tr)
		if err != nil {
			tr.Close()
		}
		return w, err
	}
	snID, err := handshake.NewIdentity()
	if err != nil {
		return nil, err
	}
	snTr, err := attach("fd00::100")
	if err != nil {
		return nil, err
	}
	cfg := sn.Config{Transport: snTr, Identity: snID}
	if traced {
		cfg.Trace = r.sink.tracer.snHook
	}
	node, err := sn.New(cfg)
	if err != nil {
		snTr.Close()
		return nil, err
	}
	r.closers = append(r.closers, func() { node.Close() })
	r.regs["sn0"] = node.Telemetry()

	newHost := func(addr string, fast func(wire.Addr, wire.ILPHeader, []byte)) (*host.Host, error) {
		id, err := handshake.NewIdentity()
		if err != nil {
			return nil, err
		}
		tr, err := attach(addr)
		if err != nil {
			return nil, err
		}
		h, err := host.New(host.Config{Transport: tr, Identity: id, FastHandler: fast})
		if err != nil {
			tr.Close()
			return nil, err
		}
		r.closers = append(r.closers, func() { h.Close() })
		r.regs[addr] = h.Pipes().Telemetry()
		return h, h.Associate(node.Addr())
	}
	egressAddr := wire.MustAddr("fd00::e")
	egress, err := newHost("fd00::e", func(_ wire.Addr, hdr wire.ILPHeader, payload []byte) {
		r.sink.deliver(egressAddr, hdr.Conn, payload)
	})
	if err != nil {
		return nil, err
	}
	rule := cache.Action{Forward: []wire.Addr{egress.Addr()}}
	for i := range ingressHosts {
		h, err := newHost(fmt.Sprintf("fd00::%d", i+1), nil)
		if err != nil {
			return nil, err
		}
		g := r.addGen(seed, 64)
		for c := range fastpathConns + traceConns {
			conn, err := h.NewConn(wire.SvcNone)
			if err != nil {
				return nil, err
			}
			node.Cache().Add(wire.FlowKey{Src: h.Addr(), Service: wire.SvcNone, Conn: conn.ID()}, rule)
			f := &flow{dst: egress.Addr(), send: func(p []byte) error { return conn.Send(nil, p) }}
			f.conn.Store(uint64(conn.ID()))
			if c < fastpathConns {
				g.active = append(g.active, f)
			} else {
				if traced {
					f.trace = r.sink.tracer.reserve(h.Addr(), conn.ID(), egress.Addr())
				}
				g.traced = append(g.traced, f)
			}
			g.addFlow(f)
		}
	}
	return r, nil
}

// buildSlowpath builds a one-SN edomain on the in-process fabric whose
// null module runs over the IPC module transport inside the simulated
// enclave. No rules are installed: every packet takes the slow path.
func buildSlowpath(seed uint64, traced bool) (_ *rig, err error) {
	r := newRig(traced)
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	var opts []lab.Option
	var mod sn.Module = null.New()
	if traced {
		t := r.sink.tracer
		opts = append(opts,
			lab.WithSNConfig(func(c *sn.Config) { c.Trace = t.snHook }),
			lab.WithTransportWrap(func(tr netsim.Transport) netsim.Transport {
				w, werr := wrapTransport(t, tr)
				if werr != nil {
					panic(werr) // the fabric transport implements both interfaces
				}
				return w
			}))
		if mod, err = wrapModule(t, mod); err != nil {
			return nil, err
		}
	}
	topo := lab.New(opts...)
	r.closers = append(r.closers, topo.Close)
	r.regs["net"] = topo.Net.Telemetry()
	ed, err := topo.AddEdomain("bench", 1, func(node *sn.SN, _ *lab.Edomain) error {
		return node.Register(mod, sn.WithTransport(sn.TransportIPC), sn.WithEnclave())
	})
	if err != nil {
		return nil, err
	}
	r.regs["sn0"] = ed.SNs[0].Telemetry()
	var egress *host.Host
	egress, err = topo.NewHost(ed, 0, func(c *host.Config) {
		c.FastHandler = func(_ wire.Addr, hdr wire.ILPHeader, payload []byte) {
			r.sink.deliver(egress.Addr(), hdr.Conn, payload)
		}
	})
	if err != nil {
		return nil, err
	}
	r.regs["egress"] = egress.Pipes().Telemetry()
	data := null.EgressData(egress.Addr())
	for range ingressHosts {
		h, err := topo.NewHost(ed, 0)
		if err != nil {
			return nil, err
		}
		g := r.addGen(seed, 1024)
		for c := range slowpathConns + traceConns {
			conn, err := h.NewConn(wire.SvcNull)
			if err != nil {
				return nil, err
			}
			f := &flow{dst: egress.Addr(), send: func(p []byte) error { return conn.Send(data, p) }}
			f.conn.Store(uint64(conn.ID()))
			if c < slowpathConns {
				g.active = append(g.active, f)
			} else {
				if traced {
					f.trace = r.sink.tracer.reserve(h.Addr(), conn.ID(), egress.Addr())
				}
				g.traced = append(g.traced, f)
			}
			g.addFlow(f)
		}
	}
	return r, nil
}
