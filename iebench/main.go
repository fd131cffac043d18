// Command iebench is the InterEdge benchmark. It builds one workload's
// topology from the repository's own packages, drives it with at most
// two seeded load generators, verifies every delivered packet, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) with their units. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash iebench/run.sh --workload fastpath-64b --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// what each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its topology; setup_s is
// the median, and only the last build is measured.
const setupRepeats = 9

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed for every choice the generators make")
	seconds := flag.Int("seconds", 10, "measured seconds, split across the run's phases")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result, span and stall files")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "iebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(w, options{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "iebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type options struct {
	seed    uint64
	seconds int
	traced  bool
	out     string
}

// metricSet is an ordered list of named metrics with units.
type metricSet struct {
	names []string
	vals  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) add(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = make(map[string]metric)
	}
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{v, unit}
}

type result struct {
	workload  string
	meta      map[string]string
	metrics   metricSet // everything measured
	reported  []string  // the names the last line carries
	attempted uint64
	delivered uint64
	failed    uint64
	correct   bool
	failures  map[string]uint64
}

// The metric names a listed workload reports on its last line; they are
// the names BENCHMARK.json declares.
var (
	endToEnd = []string{"cpu_us_per_pkt", "unloaded_p50_us", "setup_s", "mem_peak_mb"}
	perLayer = []string{
		"loadgen.late_us.p50", "loadgen.late_us.p99",
		"host.send_us.p50", "host.send_us.p99",
		"sn.rx_us.p50", "sn.rx_us.p99",
		"sn.classify_us.p50", "sn.classify_us.p99",
		"sn.to_forward_us.p50", "sn.to_forward_us.p99",
		"sn.egress_us.p50", "sn.egress_us.p99",
		"trace.e2e_us.p50", "trace.span_sum_share", "trace.samples", "trace.overhead_us",
		"pipe.rx_batch_mean", "process.allocs_per_pkt", "process.cpu_busy_share",
	}
)

func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s\n", r.workload)
	keys := make([]string, 0, len(r.meta))
	for k := range r.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "meta %s %s\n", k, r.meta[k])
	}
	for _, n := range r.metrics.names {
		m := r.metrics.vals[n]
		fmt.Fprintf(f, "metric %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fkeys := make([]string, 0, len(r.failures))
	for k := range r.failures {
		fkeys = append(fkeys, k)
	}
	sort.Strings(fkeys)
	for _, k := range fkeys {
		fmt.Fprintf(f, "failure %s %d\n", k, r.failures[k])
	}
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]metric)}
	for _, n := range r.reported {
		if m, ok := r.metrics.vals[n]; ok {
			last.Metrics[n] = m
		}
	}
	b, _ := json.Marshal(last) // a map of finite floats always encodes
	fmt.Fprintf(f, "%s\n", b)
}

// windowLen is the length of the slices a phase is cut into. Rates and
// latency percentiles are taken per window and reported as the median
// across windows, so a burst of noise from outside the process moves one
// window, not the result.
const windowLen = time.Second

// window is one slice of a phase.
type window struct {
	wall      time.Duration
	cpu       time.Duration
	delivered uint64
	lat       *hist
}

// phase is one measured interval's outcome.
type phase struct {
	windows   []window
	wall      time.Duration
	cpu       time.Duration
	delivered uint64
	mallocs   uint64
	counts    map[string]float64 // registry deltas
}

// median reports the median over the phase's windows of f.
func (p phase) median(f func(w window) float64) float64 {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

func (p phase) quantileUs(q float64) float64 {
	return p.median(func(w window) float64 { return w.lat.quantileUs(q) })
}

func (p phase) samples() uint64 {
	var n uint64
	for _, w := range p.windows {
		n += w.lat.n.Load()
	}
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure runs drive on the given generators for d, cut into windows,
// then drains them and returns the interval's deltas.
func (r *rig) measure(gens []*generator, d time.Duration, drive func(g *generator, end int64)) phase {
	n := max(1, int(math.Round(float64(d)/float64(windowLen))))
	runtime.GC() // start every phase from the same heap state
	c := &r.sink.c
	before := r.counts()
	m0 := mallocs()
	h := new(hist)
	r.sink.cur.Store(h)
	start, cpu0, d0 := time.Now(), cpuTime(), c.delivered.Load()
	end := nowNs() + int64(d)
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(g, end)
		}()
	}
	var p phase
	wStart, wCPU, wDel := start, cpu0, d0
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(n))))
		now, cpu, del := time.Now(), cpuTime(), c.delivered.Load()
		p.windows = append(p.windows, window{now.Sub(wStart), cpu - wCPU, del - wDel, h})
		if i < n {
			h = new(hist)
			r.sink.cur.Store(h)
		}
		wStart, wCPU, wDel = now, cpu, del
	}
	wg.Wait()
	p.wall, p.cpu, p.delivered = time.Since(start), cpuTime()-cpu0, c.delivered.Load()-d0
	p.mallocs = mallocs() - m0
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.drain()
		}()
	}
	wg.Wait()
	after := r.counts()
	p.counts = make(map[string]float64, len(after))
	for k, v := range after {
		p.counts[k] = v - before[k]
	}
	return p
}

func run(w *workload, o options) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	trace := 0
	if o.traced {
		trace = 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, trace)
	var setups []float64
	var r *rig
	for range setupRepeats {
		if r != nil {
			r.close()
		}
		runtime.GC() // the previous build's garbage is not this build's cost
		t0 := time.Now()
		var err error
		if r, err = w.build(o.seed, o.traced); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	startCounts := r.counts()
	stalls := 0
	r.sink.onStall = func() {
		stalls++
		r.dump(filepath.Join(o.out, fmt.Sprintf("%s-stall%d.prom", tag, stalls)))
	}

	total := time.Duration(o.seconds) * time.Second
	frac := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	// The closed loop runs the workload's flow stream; unloaded latency is
	// measured on established flows.
	closed := func(g *generator, end int64) { g.closedLoop(64, end, g.stream) }
	unloaded := func(g *generator, end int64) { g.closedLoop(1, end, g.pick) }
	gen0 := r.gens[:1]

	res := &result{workload: w.name, meta: metadata(o.seed)}
	m := &res.metrics
	r.measure(r.gens, frac(0.05), func(g *generator, end int64) { g.closedLoop(64, end, g.pick) }) // warm-up, discarded
	var loadedLate hist
	first, attach := new(hist), new(hist)
	loaded := func(d time.Duration) phase {
		if r.sink.first.Load() != nil {
			r.sink.first.Store(first)
			r.sink.attach.Store(attach)
		}
		start := nowNs()
		return r.measure(r.gens, d, func(g *generator, end int64) {
			g.openLoop(w.loadedRate/float64(len(r.gens)), 64, start, end, &loadedLate)
		})
	}
	if !o.traced {
		cl := r.measure(r.gens, frac(0.40), closed)
		un := r.measure(gen0, frac(0.20), unloaded)
		ld := loaded(frac(0.35))
		m.add("delivered_pps", cl.median(func(w window) float64 { return float64(w.delivered) / w.wall.Seconds() }), "1/s")
		m.add("cpu_us_per_pkt", cl.median(func(w window) float64 { return perPkt(float64(w.cpu.Microseconds()), w.delivered) }), "us")
		m.add("unloaded_p50_us", un.quantileUs(0.50), "us")
		m.add("unloaded_p99_us", un.quantileUs(0.99), "us")
		m.add("unloaded_samples", float64(un.samples()), "count")
		m.add("loaded_p50_us", ld.quantileUs(0.50), "us")
		m.add("loaded_p99_us", ld.quantileUs(0.99), "us")
		m.add("loaded_samples", float64(ld.samples()), "count")
		m.add("loaded_offered_pps", w.loadedRate, "1/s")
		res.reported = endToEnd
	} else {
		t := r.sink.tracer
		cl := r.measure(r.gens, frac(0.25), closed)
		base := r.measure(gen0, frac(0.15), unloaded)
		t.on.Store(true)
		n := 0
		tr := r.measure(gen0, frac(0.25), func(g *generator, end int64) {
			g.closedLoop(1, end, func() *flow {
				// Sample one packet in two onto a reserved connection.
				n++
				if n%2 == 0 && len(g.traced) > 0 {
					return g.traced[(n/2)%len(g.traced)]
				}
				return g.pick()
			})
		})
		t.on.Store(false)
		loaded(frac(0.30)) // run for loadgen lateness only
		t.metrics(m)
		m.add("trace.unloaded_p50_us", tr.quantileUs(0.5), "us")
		m.add("trace.overhead_us", tr.quantileUs(0.5)-base.quantileUs(0.5), "us")
		r.layerCounts(m, cl)
		if err := t.writeSpans(filepath.Join(o.out, tag+"-spans.jsonl")); err != nil {
			return nil, err
		}
		res.reported = perLayer
	}
	m.add("loadgen.late_us.p50", loadedLate.quantileUs(0.50), "us")
	m.add("loadgen.late_us.p99", loadedLate.quantileUs(0.99), "us")
	m.add("loadgen.late_us.count", float64(loadedLate.n.Load()), "count")
	if r.sink.first.Load() != nil {
		m.add("first_packet_p50_us", first.quantileUs(0.50), "us")
		m.add("first_packet_p99_us", first.quantileUs(0.99), "us")
		m.add("first_packet_samples", float64(first.n.Load()), "count")
		m.add("attach_p50_us", attach.quantileUs(0.50), "us")
		m.add("attach_p99_us", attach.quantileUs(0.99), "us")
		m.add("attach_samples", float64(attach.n.Load()), "count")
		res.reported = append(append([]string(nil), res.reported...), "first_packet_p50_us", "first_packet_p99_us", "attach_p50_us", "attach_p99_us", "failed_ratio")
	}
	m.add("setup_s", median(setups), "s")
	m.add("mem_peak_mb", peakRSSMB(), "MB")
	// Every phase counts, warm-up included: every attempted operation is
	// checked.
	res.attempted, res.delivered, res.failed = r.sink.c.attempted.Load(), r.sink.c.delivered.Load(), r.sink.c.failed()
	m.add("failed_ratio", float64(res.failed)/float64(max(res.attempted, 1)), "ratio")
	res.failures = r.sink.c.breakdown()
	// Name the layer behind any failure: every drop, error and failure
	// counter that moved during the run.
	for k, v := range r.counts() {
		if d := v - startCounts[k]; d != 0 &&
			(strings.Contains(k, "drop") || strings.Contains(k, "error") || strings.Contains(k, "fail")) {
			res.failures["registry "+k] = uint64(d)
		}
	}
	// Correct means every packet the program delivered was right: none
	// reached the wrong host or connection, arrived twice, or was
	// corrupted. Packets it lost are failed operations, counted apart.
	res.correct = res.failures["misdelivered"]+res.failures["duplicate"]+res.failures["corrupt"] == 0
	if err := res.write(filepath.Join(o.out, tag+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

func perPkt(v float64, n uint64) float64 { return v / float64(max(n, 1)) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metadata makes every result comparable: same seed and machine shape.
func metadata(seed uint64) map[string]string {
	m := map[string]string{
		"seed":       fmt.Sprint(seed),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m["commit"] = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *result) write(path string) error {
	out := struct {
		Workload  string            `json:"workload"`
		Meta      map[string]string `json:"meta"`
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Failures  map[string]uint64 `json:"failures"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.workload, r.meta, r.correct, r.attempted, r.failed, r.failures, r.metrics.vals}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
