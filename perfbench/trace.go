package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"nodeselect/internal/core"
	"nodeselect/internal/hierarchy"
	"nodeselect/internal/lease"
	"nodeselect/internal/remos"
	"nodeselect/internal/topology"
)

// span is one timed interval of the traced run. Each request has a root
// span around ServeHTTP; the layer calls replayed for it afterwards are
// its children.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    int32  `json:"req"`    // stream index of the request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// offPath names replayed calls the service does not make on its own
// request path: they are measured for comparison but not subtracted from
// the service's self time.
var offPath = map[string]bool{"core.score": true, "hierarchy.build": true, "hierarchy.select": true}

// shadow holds the harness-owned instances a traced run replays each
// request's layer calls on: a collector polled the same way as the
// service's, and a ledger over the same graph (with its own WAL when the
// service has one). The workload is deterministic, so the shadow ledger
// stays in lockstep with the service's; every replayed answer is compared
// with the service's.
type shadow struct {
	e      *env
	coll   *remos.Collector
	led    *lease.Ledger
	walDir string

	base  time.Time
	req   int32
	spans []span

	// part is the hierarchy partition for (partEpoch, partVersion).
	part        *hierarchy.Partition
	partEpoch   int
	partVersion uint64

	rounds, selects int
	walBytes        int64
	walOps          int
}

func newShadow(e *env, workdir string) (*shadow, error) {
	s := &shadow{e: e, coll: remos.NewCollector(e.src, remos.CollectorConfig{})}
	if !e.w.wal {
		// An in-memory ledger cannot fail to construct over a graph.
		s.led, _ = lease.New(e.g, lease.Options{})
		return s, nil
	}
	dir, err := os.MkdirTemp(workdir, "shadow-wal-")
	if err != nil {
		return nil, err
	}
	s.walDir = dir
	if s.led, err = openLedger(e.g, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

func (s *shadow) close() {
	s.led.Close()
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}

// begin opens a span; with no traced phase running (base unset) it
// records nothing and returns -1.
func (s *shadow) begin(name string, parent int32) int32 {
	if s.base.IsZero() {
		return -1
	}
	id := int32(len(s.spans))
	s.spans = append(s.spans, span{ID: id, Parent: parent, Req: s.req, Name: name, Start: int64(time.Since(s.base))})
	return id
}

func (s *shadow) end(id int32) {
	if id >= 0 {
		s.spans[id].End = int64(time.Since(s.base))
	}
}

// catchUp replays, untimed, the ledger transitions the service committed
// since the last replay.
func (s *shadow) catchUp() {
	for _, m := range s.e.cl.pending {
		s.mutate(m, -1)
	}
	s.e.cl.pending = s.e.cl.pending[:0]
}

// snapshot replays the three collector reads the handler makes.
func (s *shadow) snapshot(parent int32) *topology.Snapshot {
	id := s.begin("remos.snapshot", parent)
	snap, err := s.coll.Snapshot(remos.Current, false)
	s.coll.Health()
	s.coll.Freshness()
	s.end(id)
	if err != nil {
		s.e.cl.fail("shadow snapshot: %v", err)
	}
	return snap
}

// sweep replays core.SelectOpt as the handler runs it: with a decision
// observer installed, here counting rounds.
func (s *shadow) sweep(algo string, residual *topology.Snapshot, req core.Request, parent int32) (core.Result, error) {
	opts := core.Options{Observer: func(core.SweepStep) { s.rounds++ }}
	id := s.begin("core.select", parent)
	res, err := core.SelectOpt(algo, residual, req, nil, opts)
	s.end(id)
	s.selects++
	return res, err
}

// score times core.Score on an answered set (off the request path).
func (s *shadow) score(residual *topology.Snapshot, nodes []int, req core.Request, parent int32) {
	id := s.begin("core.score", parent)
	core.Score(residual, nodes, req)
	s.end(id)
}

// mutate replays one committed ledger transition and checks that the
// shadow ledger made the same one.
func (s *shadow) mutate(m mutation, parent int32) {
	before := s.walSize()
	switch m.o.kind {
	case opRelease:
		id := s.begin("lease.release", parent)
		err := s.led.Release(context.Background(), m.id)
		s.end(id)
		if err != nil {
			s.e.cl.fail("shadow release %s: %v", m.id, err)
		}
	case opLeased:
		snap := s.snapshot(parent)
		req := m.o.req
		demand := *req.Demand
		shape := &lease.Shape{M: req.M, Algo: req.Algo, Mode: remos.Current.String(), Priority: req.Priority}
		id := s.begin("lease.acquire", parent)
		var placed []int
		var creq core.Request
		info, err := s.led.AcquireShaped(context.Background(), snap, demand,
			time.Duration(req.LeaseTTL*float64(time.Second)), shape,
			func(_ context.Context, residual *topology.Snapshot, minBW float64) ([]int, error) {
				creq = coreRequest(req)
				creq.MinCPU = max(creq.MinCPU, demand.CPU)
				creq.MinBW = max(creq.MinBW, minBW)
				res, err := s.sweep(req.Algo, residual, creq, id)
				placed = res.Nodes
				return res.Nodes, err
			})
		s.end(id)
		if err != nil {
			s.e.cl.fail("shadow acquire %s: %v", m.id, err)
			return
		}
		s.score(snap, placed, creq, parent)
		got := slices.Clone(info.Nodes)
		want := slices.Clone(m.nodes)
		slices.Sort(got)
		slices.Sort(want)
		if info.ID != m.id || !slices.Equal(got, want) {
			s.e.cl.fail("shadow ledger diverged: %s on %v, service %s on %v", info.ID, got, m.id, want)
		}
	}
	// A transition that compacts the WAL shrinks it; only appends count.
	if after := s.walSize(); s.walDir != "" && after >= before {
		s.walBytes += after - before
		s.walOps++
	}
}

// walSize is the shadow WAL directory's size in bytes.
func (s *shadow) walSize() int64 {
	if s.walDir == "" {
		return 0
	}
	var n int64
	entries, _ := os.ReadDir(s.walDir) // an unreadable directory counts as empty
	for _, de := range entries {
		if fi, err := de.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// plain replays a plain select along the path the service took: a cache
// hit reads the snapshot only; a miss also derives the residual view and
// runs the sweep. Misses additionally time core.Score on the answer and
// the cluster-first hierarchy path on the same request, which the default
// service does not run.
func (s *shadow) plain(o *op, cache string, got answer, root int32) {
	snap := s.snapshot(root)
	if cache == "hit" || snap == nil {
		return
	}
	id := s.begin("lease.residual", root)
	residual := s.led.Residual(snap)
	s.end(id)
	creq := coreRequest(o.req)
	res, err := s.sweep(o.req.Algo, residual, creq, root)
	if err != nil {
		s.e.cl.fail("shadow select %s: %v", o.body, err)
		return
	}
	if !slices.Equal(res.Names(snap.Graph), got.names()) {
		s.e.cl.fail("shadow select %s: %v, service %v", o.body, res.Names(snap.Graph), got.names())
	}
	s.score(residual, res.Nodes, creq, root)
	if s.part == nil || s.partEpoch != s.e.epoch || s.partVersion != s.led.Version() {
		id := s.begin("hierarchy.build", root)
		s.part = hierarchy.Build(residual)
		s.end(id)
		s.partEpoch, s.partVersion = s.e.epoch, s.led.Version()
	}
	id = s.begin("hierarchy.select", root)
	hres, _, err := hierarchy.Select(o.req.Algo, residual, s.part, creq, nil, core.Options{})
	s.end(id)
	if err != nil || !slices.Equal(hres.Nodes, res.Nodes) {
		s.e.cl.fail("hierarchy select %s: %v (%v), flat %v", o.body, hres.Nodes, err, res.Nodes)
	}
}

// tracedStep runs one operation with a root span around ServeHTTP, then
// replays its layer calls as child spans.
func (e *env) tracedStep(ph *phase, start time.Time, paused time.Duration) error {
	s := e.shadow
	if s.base.IsZero() {
		s.base = start
	}
	o, err := e.w.next(e.cl.next)
	if err != nil {
		return err
	}
	s.req = int32(e.cl.next)
	e.cl.next++
	r := e.request(o)
	if r == nil {
		return nil
	}
	e.rec.reset()
	root := s.begin("selectsvc.serve", -1)
	t0 := time.Now()
	e.h.ServeHTTP(&e.rec, r)
	ph.lat = append(ph.lat, time.Since(t0))
	ph.kinds = append(ph.kinds, o.kind)
	ph.done = append(ph.done, time.Since(start)-paused)
	s.end(root)
	e.observe(o)

	r0 := time.Now()
	switch o.kind {
	case opSelect:
		cache := ""
		if d := e.svc.Decisions(1); len(d) == 1 {
			cache = d[0].Cache
		}
		if e.rec.code == 200 {
			s.plain(o, cache, e.cl.last, root)
		}
	default:
		for _, m := range e.cl.pending {
			s.mutate(m, root)
		}
		e.cl.pending = e.cl.pending[:0]
	}
	ph.replayed += time.Since(r0)
	return nil
}

// layerStat is one layer's totals over the traced phase.
type layerStat struct {
	calls int
	self  time.Duration // duration minus the time its children account for
}

// layers computes per-layer self times. A replayed child runs after its
// root's ServeHTTP returned, so the root's self time is its duration minus
// its on-path children's durations: the service's own work.
func (s *shadow) layers() map[string]*layerStat {
	childTime := make([]time.Duration, len(s.spans))
	for _, sp := range s.spans {
		if sp.Parent >= 0 && !offPath[sp.Name] {
			childTime[sp.Parent] += time.Duration(sp.End - sp.Start)
		}
	}
	out := map[string]*layerStat{}
	for i, sp := range s.spans {
		name := sp.Name
		if name == "selectsvc.serve" {
			name = "selectsvc"
		}
		st := out[name]
		if st == nil {
			st = &layerStat{}
			out[name] = st
		}
		st.calls++
		st.self += time.Duration(sp.End-sp.Start) - childTime[i]
	}
	return out
}

// meanUS is a layer's mean self time per call in microseconds (0 when the
// layer was not called).
func meanUS(ls map[string]*layerStat, name string) float64 {
	st := ls[name]
	if st == nil || st.calls == 0 {
		return 0
	}
	return float64(st.self) / float64(st.calls) / 1e3
}

// printLayers writes the per-layer self-time table.
func printLayers(w io.Writer, ls map[string]*layerStat) {
	names := make([]string, 0, len(ls))
	var serve time.Duration
	for n, st := range ls {
		names = append(names, n)
		if n == "selectsvc" || !offPath[n] {
			serve += st.self
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-18s %9s %14s %10s\n", "layer", "calls", "self us/call", "share")
	for _, n := range names {
		st := ls[n]
		share := "off-path"
		if !offPath[n] {
			share = fmt.Sprintf("%.1f%%", 100*float64(st.self)/float64(serve))
		}
		fmt.Fprintf(w, "%-18s %9d %14.2f %10s\n", n, st.calls, meanUS(ls, n), share)
	}
}

// writeSpans dumps the spans as JSON into dir.
func (s *shadow) writeSpans(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(s.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
