// Command perfbench is the selectd benchmark: it drives an in-process
// selectsvc.Service through Handler().ServeHTTP with one closed-loop client
// and reports end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs) as one JSON object on the last line of standard output.
// See README.md in this directory for the workloads and metric definitions.
//
//	perfbench --workload select-hot --seed 1 --seconds 10 --trace 0
//	perfbench --workload select-hot --seconds 10 --repeat 10   # steadiness report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed (prefixed "detail ") before the result line: what the
// steadiness report needs beyond the metrics.
type detail struct {
	Digest      string `json:"digest"`
	Samples     int    `json:"samples"`
	BeyondP50   int    `json:"beyond_p50"`
	BeyondP95   int    `json:"beyond_p95"`
	SetupSample int    `json:"setup_samples"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workdir  string
	size     size
}

func main() {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload: select-hot, select-sweep, lease-churn or fabric-10k")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench", "directory for WAL files and span dumps")
	flag.IntVar(&repeat, "repeat", 0, "steadiness report: run the workload this many times in fresh processes, seeds seed, seed+1, ...")
	flag.Parse()
	cfg.traced = trace == 1
	cfg.size = fullSize
	if repeat > 0 {
		if err := steadiness(os.Stdout, cfg, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, det, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detLine, err := json.Marshal(det)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !cfg.traced {
		fmt.Printf("detail %s\n", detLine)
	}
	fmt.Println(string(line))
}

// run performs one run and returns its result; human-readable lines go to
// out. Traced runs return an empty detail.
func run(out io.Writer, cfg config) (result, detail, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return result{}, detail{}, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, detail{}, err
	}
	if cfg.traced {
		res, err := runTraced(out, cfg, w)
		return res, detail{}, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))

	// Set up several times and keep the last; setup_s is the median. Every
	// set-up replays the same warm-up, so their answer digests must agree.
	// heap_mb is likewise the median of the set-ups' live-heap growth.
	var setups, heaps []float64
	var e *env
	for i := 0; i < w.setups; i++ {
		warm := ""
		if e != nil {
			warm = e.cl.warmDigest
			e.close()
			e = nil
		}
		base := heapMB()
		next, st, err := setUp(w, cfg.seed, cfg.workdir, false)
		if err != nil {
			return result{}, detail{}, err
		}
		e = next
		setups = append(setups, st.seconds)
		heaps = append(heaps, heapMB()-base)
		if warm != "" && warm != e.cl.warmDigest {
			e.cl.fail("set-ups of one seed answered the warm-up differently")
		}
	}
	defer e.close()
	heap := median(heaps)

	ph, err := e.measure(d, false)
	if err != nil {
		return result{}, detail{}, err
	}
	if err := e.check(); err != nil {
		return result{}, detail{}, err
	}
	checks := e.checked
	timed := e.cl.next - w.warm
	if timed < w.digestOps {
		// The digest and minresource_mean would not be comparable.
		e.cl.fail("only %d timed operations, the digest needs %d", timed, w.digestOps)
	}
	sl := sliced(ph)
	p50, p95, beyond50, beyond95 := sl.p50, sl.p95, sl.beyond50, sl.beyond95
	if beyond95 < 10 {
		fmt.Fprintf(out, "warning: latency_p95_us has only %d samples beyond it (want at least 10)\n", beyond95)
	}
	attempted := len(ph.lat) + checks
	det := detail{
		Digest:      digestOf(e),
		Samples:     sl.size,
		BeyondP50:   beyond50,
		BeyondP95:   beyond95,
		SetupSample: len(setups),
	}
	minres := 0.0
	if e.cl.minresN > 0 {
		minres = e.cl.minresSum / float64(e.cl.minresN)
	}
	res := result{
		Correct:   e.cl.failed == 0,
		Attempted: attempted,
		Failed:    e.cl.failed,
		Metrics: map[string]metric{
			"throughput_ops":   {sl.throughput, "ops/s"},
			"latency_p50_us":   {float64(p50) / 1e3, "us"},
			"latency_p95_us":   {float64(p95) / 1e3, "us"},
			"setup_s":          {median(setups), "s"},
			"heap_mb":          {heap, "MB"},
			"minresource_mean": {minres, "ratio"},
		},
	}
	fmt.Fprintf(out, "workload %s seed %d: %d operations in %.2f s, %d checks, %d failed (error_ratio %g)\n",
		w.name, cfg.seed, len(ph.lat), ph.elapsed.Seconds(), checks, e.cl.failed,
		float64(e.cl.failed)/float64(attempted))
	for _, msg := range e.cl.errs {
		fmt.Fprintln(out, "  failure:", msg)
	}
	fmt.Fprintf(out, "setup_s samples %.4f, heap_mb samples %.4f\n", setups, heaps)
	fmt.Fprintf(out, "%d slices of %d operations: latency_p50_us %.2f (%d beyond per slice), latency_p95_us %.2f (%d beyond per slice)\n",
		sl.n, sl.size, float64(p50)/1e3, beyond50, float64(p95)/1e3, beyond95)
	fmt.Fprintf(out, "slice throughputs %.0f\n", sl.rates)
	fmt.Fprintf(out, "answer digest %s over %d operations, minresource_mean %.9g\n",
		det.Digest, w.warm+min(timed, w.digestOps), minres)
	printClasses(out, ph)
	printMetrics(out, res.Metrics)
	return res, det, nil
}

// digestOf finalizes the client's answer digest.
func digestOf(e *env) string {
	return fmt.Sprintf("%x", e.cl.digest.Sum(nil))[:16]
}

// runTraced is the traced run: one set-up with the route table and polls
// timed on their own, an untraced half-phase (allocation and GC figures,
// and the throughput the overhead is measured against), then a traced
// half-phase that replays every request's layer calls as spans.
func runTraced(out io.Writer, cfg config, w *workload) (result, error) {
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	e, st, err := setUp(w, cfg.seed, cfg.workdir, true)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	before, err := e.planCacheCounts()
	if err != nil {
		return result{}, err
	}
	plain, err := e.measure(half, false)
	if err != nil {
		return result{}, err
	}
	e.shadow.catchUp()
	traced, err := e.measure(half, true)
	if err != nil {
		return result{}, err
	}
	after, err := e.planCacheCounts()
	if err != nil {
		return result{}, err
	}
	if err := e.check(); err != nil {
		return result{}, err
	}
	checks := e.checked
	var lookups float64
	for _, k := range []string{"hit", "miss", "bypass"} {
		lookups += after[k] - before[k]
	}
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = (after["hit"] - before["hit"]) / lookups
	}
	s := e.shadow
	ls := s.layers()
	rounds := 0.0
	if s.selects > 0 {
		rounds = float64(s.rounds) / float64(s.selects)
	}
	walPerOp := 0.0
	if s.walOps > 0 {
		walPerOp = float64(s.walBytes) / float64(s.walOps)
	}
	plainTput := float64(len(plain.lat)) / plain.elapsed.Seconds()
	tracedTput := float64(len(traced.lat)) / (traced.elapsed - traced.replayed).Seconds()
	m := map[string]metric{
		"selectsvc.self_us":         {meanUS(ls, "selectsvc"), "us"},
		"selectsvc.cache_hit_ratio": {hitRatio, "ratio"},
		"remos.snapshot_us":         {meanUS(ls, "remos.snapshot"), "us"},
		"remos.poll_us":             {1e6 * median(st.pollSeconds), "us"},
		"lease.residual_us":         {meanUS(ls, "lease.residual"), "us"},
		"lease.acquire_self_us":     {meanUS(ls, "lease.acquire"), "us"},
		"lease.release_us":          {meanUS(ls, "lease.release"), "us"},
		"lease.wal_bytes_per_op":    {walPerOp, "count"},
		"core.select_us":            {meanUS(ls, "core.select"), "us"},
		"core.score_us":             {meanUS(ls, "core.score"), "us"},
		"core.sweep_rounds":         {rounds, "count"},
		"topology.routes_s":         {st.routesSeconds, "s"},
		"topology.routes_mb":        {st.routesMB, "MB"},
		"hierarchy.build_ms":        {meanUS(ls, "hierarchy.build") / 1e3, "ms"},
		"hierarchy.select_us":       {meanUS(ls, "hierarchy.select"), "us"},
		"runtime.allocs_per_op":     {float64(plain.mallocs) / float64(max(1, len(plain.lat))), "count"},
		"runtime.gc_cpu_fraction":   {plain.gcCPU, "ratio"},
		"trace.overhead_pct":        {100 * (plainTput - tracedTput) / plainTput, "%"},
	}
	path, err := s.writeSpans(cfg.workdir, w.name, cfg.seed)
	if err != nil {
		return result{}, err
	}
	attempted := len(plain.lat) + len(traced.lat) + checks
	fmt.Fprintf(out, "workload %s seed %d (traced): %d untraced + %d traced operations, %d spans in %s, %d failed\n",
		w.name, cfg.seed, len(plain.lat), len(traced.lat), len(s.spans), path, e.cl.failed)
	for _, msg := range e.cl.errs {
		fmt.Fprintln(out, "  failure:", msg)
	}
	printLayers(out, ls)
	printMetrics(out, m)
	return result{Correct: e.cl.failed == 0, Attempted: attempted, Failed: e.cl.failed, Metrics: m}, nil
}

// printMetrics writes one metric per line, sorted by name.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-26s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printClasses writes latency percentiles of each operation class, so a
// reader can see where the overall percentiles fall among them.
func printClasses(out io.Writer, ph phase) {
	for k := opSelect; k <= opRelease; k++ {
		var lat []time.Duration
		for i, kind := range ph.kinds {
			if kind == k {
				lat = append(lat, ph.lat[i])
			}
		}
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		fmt.Fprintf(out, "  class %-8s %7d operations (%5.1f%%), latency us:", k, len(lat), 100*float64(len(lat))/float64(len(ph.lat)))
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			p, _ := percentile(lat, q)
			fmt.Fprintf(out, " p%g %.2f", 100*q, float64(p)/1e3)
		}
		fmt.Fprintf(out, " max %.2f\n", float64(lat[len(lat)-1])/1e3)
	}
}

// slicedStats are the timed phase's figures taken per slice: the phase is
// cut into up to ten slices of equal operation count, at least 1000
// operations each so that every slice's p95 has 50 samples beyond it, and
// each figure is the median over the slices. A burst of host noise then
// moves one slice, not the reported value.
type slicedStats struct {
	n, size            int // slices, operations per slice
	rates              []float64
	throughput         float64
	p50, p95           time.Duration
	beyond50, beyond95 int
}

func sliced(ph phase) slicedStats {
	var st slicedStats
	st.n = max(1, min(10, len(ph.lat)/1000))
	st.size = len(ph.lat) / st.n
	var p50s, p95s []float64
	for i := 0; i < st.n; i++ {
		lo, hi := i*st.size, (i+1)*st.size
		if i == st.n-1 {
			hi = len(ph.lat)
		}
		var from time.Duration
		if lo > 0 {
			from = ph.done[lo-1]
		}
		if hi > lo {
			st.rates = append(st.rates, float64(hi-lo)/(ph.done[hi-1]-from).Seconds())
		}
		lat := slices.Clone(ph.lat[lo:hi])
		slices.Sort(lat)
		p50, b50 := percentile(lat, 0.50)
		p95, b95 := percentile(lat, 0.95)
		p50s = append(p50s, float64(p50))
		p95s = append(p95s, float64(p95))
		if i == 0 || b50 < st.beyond50 {
			st.beyond50 = b50
		}
		if i == 0 || b95 < st.beyond95 {
			st.beyond95 = b95
		}
	}
	st.throughput = median(slices.Clone(st.rates))
	st.p50 = time.Duration(median(p50s))
	st.p95 = time.Duration(median(p95s))
	return st
}
