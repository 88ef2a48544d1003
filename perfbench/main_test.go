package main

import (
	"bytes"
	"strings"
	"testing"
)

var endToEnd = []string{"throughput_ops", "latency_p50_us", "latency_p95_us", "setup_s", "heap_mb", "minresource_mean"}

var perLayer = []string{
	"selectsvc.self_us", "selectsvc.cache_hit_ratio", "remos.snapshot_us", "remos.poll_us",
	"lease.residual_us", "lease.acquire_self_us", "lease.release_us", "lease.wal_bytes_per_op",
	"core.select_us", "core.score_us", "core.sweep_rounds", "topology.routes_s", "topology.routes_mb",
	"hierarchy.build_ms", "hierarchy.select_us", "runtime.allocs_per_op", "runtime.gc_cpu_fraction",
	"trace.overhead_pct",
}

// smallRun runs one reduced-size workload and returns its result and the
// detail line.
func smallRun(t *testing.T, workload string, seed int64, traced bool) (result, detail) {
	t.Helper()
	var out bytes.Buffer
	res, det, err := run(&out, config{
		workload: workload, seed: seed, seconds: 0.5, traced: traced,
		workdir: t.TempDir(), size: smallSize,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", workload, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res, det
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, det := smallRun(t, w, 1, false)
			for _, name := range endToEnd {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("missing end-to-end metric %s", name)
				} else if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("got %d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			if det.Digest == "" {
				t.Error("no answer digest")
			}
			traced, _ := smallRun(t, w, 1, true)
			for _, name := range perLayer {
				if _, ok := traced.Metrics[name]; !ok {
					t.Errorf("missing per-layer metric %s", name)
				}
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("got %d per-layer metrics, want %d", len(traced.Metrics), len(perLayer))
			}
		})
	}
}

func TestDigestIsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			a, da := smallRun(t, w, 7, false)
			b, db := smallRun(t, w, 7, false)
			_, dc := smallRun(t, w, 8, false)
			if da.Digest != db.Digest {
				t.Errorf("same seed, digests %s and %s", da.Digest, db.Digest)
			}
			if ma, mb := a.Metrics["minresource_mean"].Value, b.Metrics["minresource_mean"].Value; ma != mb {
				t.Errorf("same seed, minresource_mean %v and %v", ma, mb)
			}
			if da.Digest == dc.Digest {
				t.Errorf("seeds 7 and 8 gave the same digest %s", da.Digest)
			}
		})
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestUnknownWorkload(t *testing.T) {
	_, _, err := run(&bytes.Buffer{}, config{workload: "nope", seconds: 0.1, workdir: t.TempDir(), size: smallSize})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v, want unknown workload", err)
	}
}

func TestFields(t *testing.T) {
	body := []byte(`{"nodes":["a","b]\"x"],"lease":{"id":"lease-1","nodes":["c"]},"min_resource":0.5,"z":{}}`)
	f := fields(body, "nodes", "min_resource", "lease", "missing")
	want := []string{`["a","b]\"x"]`, `0.5`, `{"id":"lease-1","nodes":["c"]}`, ``}
	for i, w := range want {
		if string(f[i]) != w {
			t.Errorf("field %d = %q, want %q", i, f[i], w)
		}
	}
	if id := fields(f[2], "id")[0]; string(id) != `"lease-1"` {
		t.Errorf("lease id = %q", id)
	}
}
