package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// steadiness repeats one workload in fresh processes (seeds seed,
// seed+1, ...) and prints, per metric, the median, the quartiles (computed
// as Python's statistics.quantiles(n=4) does), the interquartile range and
// the largest deviation from the median, both relative to the median, and
// next to each percentile the sample counts behind it. When BENCHMARK.json
// is in the working directory, each end-to-end spread is also compared with
// a third of the metric's bound.
func steadiness(out io.Writer, cfg config, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var details []detail
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		trace := "0"
		if cfg.traced {
			trace = "1"
		}
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace, "--workdir", cfg.workdir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, det, err := parseRun(stdout)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run reported incorrect results (%d of %d failed)", seed, res.Failed, res.Attempted)
		}
		details = append(details, det)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(out, "run %d seed %d: digest %s, %d samples\n", i+1, seed, det.Digest, det.Samples)
	}
	bounds := readBounds("BENCHMARK.json")
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(out, "\n%s, %d runs, %g s each\n", cfg.workload, n, cfg.seconds)
	fmt.Fprintf(out, "%-26s %-6s %14s %14s %14s %8s %8s %8s  %s\n",
		"metric", "unit", "median", "q1", "q3", "iqr%", "maxdev%", "bound/3%", "samples")
	for _, name := range names {
		xs := values[name]
		q1, q2, q3 := quartiles(xs)
		maxDev := 0.0
		for _, x := range xs {
			maxDev = math.Max(maxDev, math.Abs(x-q2)/math.Abs(q2))
		}
		iqr := (q3 - q1) / math.Abs(q2)
		bound := "-"
		if b, ok := bounds[name]; ok {
			verdict := "ok"
			if iqr >= b/3 && name != "setup_s" {
				verdict = "WIDE"
			}
			bound = fmt.Sprintf("%.1f %s", 100*b/3, verdict)
		}
		samples := ""
		switch name {
		case "latency_p50_us":
			samples = sampleRange(details, func(d detail) int { return d.Samples }, func(d detail) int { return d.BeyondP50 })
		case "latency_p95_us":
			samples = sampleRange(details, func(d detail) int { return d.Samples }, func(d detail) int { return d.BeyondP95 })
		case "setup_s":
			samples = fmt.Sprintf("%d set-ups per run", details[0].SetupSample)
		}
		fmt.Fprintf(out, "%-26s %-6s %14.6g %14.6g %14.6g %8.2f %8.2f %8s  %s\n",
			name, units[name], q2, q1, q3, 100*iqr, 100*maxDev, bound, samples)
	}
	return nil
}

// parseRun reads a run's output: the detail line and the final result line.
func parseRun(stdout []byte) (result, detail, error) {
	var res result
	var det detail
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			if err := json.Unmarshal([]byte(rest), &det); err != nil {
				return res, det, err
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, det, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, det, sc.Err()
}

// quartiles returns the three quartiles by the method of Python's
// statistics.quantiles(values, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		j = max(1, min(j, len(d)-1))
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// sampleRange renders the smallest and largest sample counts across runs.
func sampleRange(ds []detail, total, beyond func(detail) int) string {
	tLo, tHi, bLo, bHi := math.MaxInt, 0, math.MaxInt, 0
	for _, d := range ds {
		tLo, tHi = min(tLo, total(d)), max(tHi, total(d))
		bLo, bHi = min(bLo, beyond(d)), max(bHi, beyond(d))
	}
	return fmt.Sprintf("n=%d..%d, %d..%d beyond", tLo, tHi, bLo, bHi)
}

// readBounds reads the end-to-end bounds from BENCHMARK.json, if present.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &doc) == nil {
		for _, m := range doc.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
