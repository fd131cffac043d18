package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
)

// counts flattens every registry of the rig into role/name → value.
// Histograms contribute name.sum and name.count.
func (r *rig) counts() map[string]float64 {
	out := make(map[string]float64)
	for role, reg := range r.regs {
		for _, s := range reg.Snapshot() {
			if s.Hist != nil {
				out[role+"/"+s.Name+".sum"] = float64(s.Hist.Sum)
				out[role+"/"+s.Name+".count"] = float64(s.Hist.Count)
				continue
			}
			out[role+"/"+s.Name] = s.Value
		}
	}
	return out
}

// sum adds a registry metric over every role whose role matches
// (empty matches all). A labeled name matches on its base name.
func sum(d map[string]float64, role, name string) float64 {
	var v float64
	for k, x := range d {
		rl, n, _ := strings.Cut(k, "/")
		if role != "" && rl != role {
			continue
		}
		if base, _, _ := strings.Cut(n, "{"); n == name || base == name {
			v += x
		}
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// roles lists the rig's registry roles with the given prefix, sorted.
func (r *rig) roles(prefix string) []string {
	var out []string
	for role := range r.regs {
		if strings.HasPrefix(role, prefix) {
			out = append(out, role)
		}
	}
	sort.Strings(out)
	return out
}

// layerCounts reports the per-layer count metrics: registry deltas over
// the closed-loop phase p, plus process counters.
func (r *rig) layerCounts(m *metricSet, p phase) {
	d := p.counts
	pkts := float64(max(p.delivered, 1))
	m.add("transport.udp_rx_dropped", sum(d, "", "transport_udp_rx_dropped_total"), "count")
	m.add("transport.tx_batch_mean", ratio(sum(d, "", "transport_udp_tx_packets_total"), sum(d, "", "transport_udp_tx_batches_total")), "pkts")
	m.add("netsim.dropped_queue", sum(d, "net", "netsim_dropped_queue_total"), "count")
	m.add("netsim.batches", sum(d, "net", "netsim_batches_total"), "count")
	m.add("pipe.rx_batch_mean", ratio(sum(d, "", "pipe_rx_open_batch_size.sum"), sum(d, "", "pipe_rx_open_batch_size.count")), "pkts")
	m.add("pipe.tx_batch_mean", ratio(sum(d, "", "pipe_tx_flush_batch_size.sum"), sum(d, "", "pipe_tx_flush_batch_size.count")), "pkts")
	m.add("pipe.handshakes", sum(d, "", "pipe_handshake_attempts_total"), "count")
	m.add("pipe.handshake_failures", sum(d, "", "pipe_handshake_failures_total"), "count")
	for _, role := range r.roles("sn") {
		m.add("sn.fastpath_share."+role, ratio(sum(d, role, "sn_fastpath_hits_total"), sum(d, role, "sn_rx_packets_total")), "ratio")
	}
	m.add("sn.module_drops", sum(d, "", "sn_module_dropped_total"), "count")
	m.add("sn.forward_errors", sum(d, "", "sn_forward_errors_total"), "count")
	m.add("sn.requeue_drops", sum(d, "", "sn_requeue_drops_total"), "count")
	hits, misses := sum(d, "", "cache_hits_total"), sum(d, "", "cache_misses_total")
	m.add("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.add("cache.inserts", sum(d, "", "cache_inserts_total"), "count")
	m.add("cache.evictions", sum(d, "", "cache_evictions_total"), "count")
	rh, rm := sum(d, "", "lookup_cache_hits_total"), sum(d, "", "lookup_cache_misses_total")
	m.add("rescache.hit_ratio", ratio(rh, rh+rm), "ratio")
	m.add("rescache.fills", sum(d, "", "lookup_cache_fills_total"), "count")
	m.add("rescache.invalidations", sum(d, "", "lookup_cache_invalidations_total"), "count")
	m.add("lookup.registrations", sum(d, "lookup", "lookup_registrations_total"), "count")
	m.add("lookup.watch_dropped", sum(d, "lookup", "lookup_watch_dropped_total"), "count")
	m.add("process.allocs_per_pkt", float64(p.mallocs)/pkts, "allocs")
	m.add("process.cpu_busy_share", p.cpu.Seconds()/(p.wall.Seconds()*float64(runtime.NumCPU())), "ratio")
}

// dump writes every registry of the rig in Prometheus text format, one
// block per role: the state of each layer at a stall.
func (r *rig) dump(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, role := range r.roles("") {
		_ = r.regs[role].Snapshot().WriteProm(w, "role", role) // best effort: a diagnostic
	}
	_ = w.Flush()
}
