package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"nodeselect/internal/core"
	"nodeselect/internal/lease"
	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/topology"
)

// pollPeriod is the source-clock gap between the two set-up polls, so
// Current-mode snapshots have an interval to rate link counters over.
const pollPeriod = 2.0

// env is one set-up service plus the client that drives it.
type env struct {
	w      *workload
	g      *topology.Graph
	src    *remos.StaticSource
	svc    *selectsvc.Service
	h      http.Handler
	walDir string
	rec    recorder
	cl     client
	// post and postBody are the reusable POST /select request and body.
	post     *http.Request
	postBody bytes.Reader
	seed     int64
	// epoch is the current condition draw; checked counts the correctness
	// comparisons made so far.
	epoch, checked int
	// shadow replays each request's layer calls in traced runs (nil
	// otherwise).
	shadow *shadow
}

// answer is the part of a /select response the client checks: the raw
// JSON array of node names, kept unparsed so that checking a cache hit
// allocates next to nothing and the harness's garbage does not pace the
// service's GC, and the placement's min_resource.
type answer struct {
	nodes  []byte
	minRes float64
}

// names decodes the node names. A malformed array decodes to nil, which
// then fails the comparison it was decoded for.
func (a answer) names() []string {
	var out []string
	_ = json.Unmarshal(a.nodes, &out)
	return out
}

// mutation is one committed ledger transition, kept so traced runs can
// replay it on the shadow ledger.
type mutation struct {
	o     *op
	id    string
	nodes []string
}

// client is the closed-loop job launcher: it sends the next operation only
// after the previous one has been answered, and keeps its own record of the
// leases it holds.
type client struct {
	next   int      // stream index of the next operation
	leases []string // held lease IDs, oldest first
	// answers maps a plain select's encoded body to its first answer in
	// the current epoch, for the correctness check (nil on lease-churn,
	// whose every commit changes the answers).
	answers map[string]answer
	// digest covers the first digestLeft answered operations: the warm-up
	// and the first digestOps timed ones. warmDigest is its value at the
	// end of the warm-up.
	digest     hash.Hash
	digestLeft int
	warmDigest string
	minresSum  float64
	minresN    int
	// last is the most recent select answer.
	last answer
	// pending are mutations not yet replayed on the shadow ledger.
	pending []mutation
	failed  int
	errs    []string
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

// setupStats is what one set-up measured.
type setupStats struct {
	seconds float64
	// Traced set-ups only.
	routesSeconds, routesMB float64
	pollSeconds             []float64
}

// setUp builds the topology, the source, the ledger (with its WAL) and the
// service, polls twice, and replays the warm-up. Traced set-ups also time
// the route table and the polls on their own and build the shadow
// instances.
func setUp(w *workload, seed int64, workdir string, traced bool) (*env, setupStats, error) {
	var st setupStats
	t0 := time.Now()
	e := &env{w: w, seed: seed, rec: recorder{hdr: http.Header{}}}
	e.cl.digest = sha256.New()
	e.cl.digestLeft = w.warm + w.digestOps
	if !w.wal {
		e.cl.answers = map[string]answer{}
	}
	e.g = w.graph()
	if traced {
		// The flat path builds the all-pairs route table on first use; a
		// traced set-up builds it here, on the same graph, to time it.
		before := heapMB()
		r0 := time.Now()
		e.g.Routes()
		st.routesSeconds = time.Since(r0).Seconds()
		st.routesMB = heapMB() - before
	}
	e.src = remos.NewStaticSource(e.g)
	w.paint(e.g, e.src, 0)
	cfg := selectsvc.Config{}
	if w.wal {
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, st, err
		}
		e.walDir = dir
		ledger, err := openLedger(e.g, dir)
		if err != nil {
			e.close()
			return nil, st, err
		}
		cfg.Ledger = ledger
	}
	e.svc = selectsvc.New(e.src, cfg)
	e.h = e.svc.Handler()
	if traced {
		sh, err := newShadow(e, workdir)
		if err != nil {
			e.close()
			return nil, st, err
		}
		e.shadow = sh
	}
	for i := 0; i < 2; i++ {
		if i > 0 {
			e.src.Advance(pollPeriod)
		}
		p0 := time.Now()
		if err := e.poll(); err != nil {
			e.close()
			return nil, st, err
		}
		st.pollSeconds = append(st.pollSeconds, time.Since(p0).Seconds())
	}
	// Correctness checks at warm-up epoch boundaries are harness work, not
	// set-up: their time is taken out of setup_s.
	var checking time.Duration
	for i := 0; i < w.warm; i++ {
		if e.epochDue() {
			d, err := e.nextEpoch()
			if err != nil {
				e.close()
				return nil, st, err
			}
			checking += d
		}
		if _, _, err := e.step(); err != nil {
			e.close()
			return nil, st, err
		}
	}
	st.seconds = (time.Since(t0) - checking).Seconds()
	e.cl.warmDigest = hex.EncodeToString(e.cl.digest.Sum(nil))
	if e.shadow != nil {
		e.shadow.catchUp()
	}
	return e, st, nil
}

// openLedger builds a ledger over g whose WAL lives in dir.
func openLedger(g *topology.Graph, dir string) (*lease.Ledger, error) {
	wal, err := lease.OpenWAL(dir)
	if err != nil {
		return nil, err
	}
	return lease.New(g, lease.Options{WAL: wal})
}

// poll samples the source into the service's collector and, in traced
// runs, the shadow collector.
func (e *env) poll() error {
	if err := e.svc.Poll(); err != nil {
		return fmt.Errorf("poll: %w", err)
	}
	if e.shadow != nil {
		e.shadow.coll.Poll()
	}
	return nil
}

// epochDue reports whether the next stream operation starts a new epoch.
func (e *env) epochDue() bool {
	i, n := e.cl.next, e.w.epochOps
	return n > 0 && i > 0 && i%n == 0 && i/n > e.epoch && (e.w.epochEnd == 0 || i < e.w.epochEnd)
}

// nextEpoch checks the ending epoch's answers, then repaints the source
// with the next condition draw and polls twice, so Current-mode snapshots
// rate link counters over an interval of the new draw only. It returns how
// long the check took.
func (e *env) nextEpoch() (time.Duration, error) {
	c0 := time.Now()
	if err := e.check(); err != nil {
		return 0, err
	}
	checking := time.Since(c0)
	if e.shadow != nil {
		// The shadow ledger must commit this epoch's transitions against
		// this epoch's measurements.
		e.shadow.catchUp()
	}
	e.epoch++
	e.w.paint(e.g, e.src, e.epoch)
	for i := 0; i < 2; i++ {
		e.src.Advance(pollPeriod)
		if err := e.poll(); err != nil {
			return 0, err
		}
	}
	return checking, nil
}

// close releases the ledger's WAL and removes the set-up's files.
func (e *env) close() {
	if e.svc != nil {
		e.svc.Ledger().Close()
	}
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
	if e.shadow != nil {
		e.shadow.close()
	}
}

// request builds the HTTP request for an operation, or nil for a release
// while the client holds too few leases to start releasing.
func (e *env) request(o *op) *http.Request {
	if o.kind == opRelease {
		if len(e.cl.leases) <= churnActive {
			return nil
		}
		// A constant method and a service-issued lease ID always parse.
		r, _ := http.NewRequest(http.MethodDelete, "/leases/"+e.cl.leases[0], nil)
		return r
	}
	// Selects copy one template request and share one body reader, which
	// keeps the harness's per-request garbage to the copy.
	if e.post == nil {
		e.post, _ = http.NewRequest(http.MethodPost, "/select", nil) // constant, always parses
		e.post.Body = io.NopCloser(&e.postBody)
	}
	e.postBody.Reset(o.body)
	r := *e.post
	r.ContentLength = int64(len(o.body))
	return &r
}

// step runs the next stream operation through ServeHTTP and returns its
// latency (0 when the operation was a skipped release).
func (e *env) step() (time.Duration, opKind, error) {
	o, err := e.w.next(e.cl.next)
	if err != nil {
		return 0, 0, err
	}
	e.cl.next++
	r := e.request(o)
	if r == nil {
		return 0, 0, nil
	}
	e.rec.reset()
	t0 := time.Now()
	e.h.ServeHTTP(&e.rec, r)
	lat := time.Since(t0)
	e.observe(o)
	return lat, o.kind, nil
}

// observe checks and records the answer to o sitting in the recorder.
func (e *env) observe(o *op) {
	c := &e.cl
	if e.rec.code < 200 || e.rec.code > 299 {
		c.fail("%s %s: HTTP %d: %s", o.kind, o.body, e.rec.code, strings.TrimSpace(e.rec.body.String()))
		return
	}
	var tag string   // lease ID, for leased selects and releases
	var nodes []byte // raw node names, for selects
	switch o.kind {
	case opRelease:
		tag = c.leases[0]
		c.leases = c.leases[1:]
		c.pending = append(c.pending, mutation{o: o, id: tag})
	default:
		f := fields(e.rec.body.Bytes(), "nodes", "min_resource", "lease")
		minRes, err := strconv.ParseFloat(string(f[1]), 64)
		if f[0] == nil || err != nil {
			c.fail("%s: bad response: %s", o.body, e.rec.body.Bytes())
			return
		}
		a := answer{nodes: f[0], minRes: minRes}
		c.last = a
		if o.kind == opLeased {
			if f[2] != nil {
				// A malformed ID leaves tag empty, which fails just below.
				_ = json.Unmarshal(fields(f[2], "id")[0], &tag)
			}
			if tag == "" {
				c.fail("%s: leased select answered without a lease", o.body)
				return
			}
			c.leases = append(c.leases, tag)
			c.pending = append(c.pending, mutation{o: o, id: tag, nodes: a.names()})
		} else if c.answers != nil {
			if prev, ok := c.answers[string(o.body)]; !ok {
				c.answers[string(o.body)] = answer{nodes: bytes.Clone(a.nodes), minRes: a.minRes}
			} else if !bytes.Equal(prev.nodes, a.nodes) || prev.minRes != a.minRes {
				c.fail("%s: answer changed within one measurement epoch", o.body)
			}
		}
		nodes = a.nodes
		if c.digestLeft > 0 {
			c.minresSum += a.minRes
			c.minresN++
		}
	}
	if c.digestLeft > 0 {
		c.digestLeft--
		fmt.Fprintf(c.digest, "%d %s %s %s\n", c.next-1, o.kind, tag, nodes)
	}
}

// phase is what one timed phase measured.
type phase struct {
	lat      []time.Duration // per-operation ServeHTTP latency
	kinds    []opKind        // the class of each latency sample
	done     []time.Duration // when each sample's operation completed, since the phase began
	elapsed  time.Duration
	mallocs  uint64
	gcCPU    float64
	replayed time.Duration // time spent replaying layer calls (traced phase)
}

// measure runs the closed loop for d, not counting the pauses at epoch
// boundaries. With traced set, every request is followed by the replay of
// its layer calls on the shadow instances.
func (e *env) measure(d time.Duration, traced bool) (phase, error) {
	var ph phase
	ph.lat = make([]time.Duration, 0, 1<<16)
	ph.kinds = make([]opKind, 0, 1<<16)
	ph.done = make([]time.Duration, 0, 1<<16)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var paused time.Duration
	for time.Since(start)-paused < d {
		if e.epochDue() {
			p0 := time.Now()
			if _, err := e.nextEpoch(); err != nil {
				return ph, err
			}
			paused += time.Since(p0)
		}
		if traced {
			if err := e.tracedStep(&ph, start, paused); err != nil {
				return ph, err
			}
			continue
		}
		lat, kind, err := e.step()
		if err != nil {
			return ph, err
		}
		if lat > 0 {
			ph.lat = append(ph.lat, lat)
			ph.kinds = append(ph.kinds, kind)
			ph.done = append(ph.done, time.Since(start)-paused)
		}
	}
	ph.elapsed = time.Since(start) - paused
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.gcCPU = m1.GCCPUFraction
	return ph, nil
}

// check runs the correctness checks on the current epoch, outside any
// timed interval. Plain-select workloads recompute answers with
// core.SelectOpt on the service's own residual snapshot document;
// lease-churn audits the ledger through GET /leases against the client's
// own record. Comparisons are counted in e.checked; mismatches count as
// failed operations.
func (e *env) check() error {
	if e.w.wal {
		e.checked++
		return e.checkLeases()
	}
	snap, err := e.residualDocument()
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(e.cl.answers))
	for k := range e.cl.answers {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if n := e.w.checks; n > 0 && n < len(keys) {
		// A seeded sample, so one seed always checks the same shapes.
		perm := newRand(e.seed, fmt.Sprintf("check-%d", e.epoch)).Perm(len(keys))[:n]
		slices.Sort(perm)
		sample := make([]string, n)
		for i, p := range perm {
			sample[i] = keys[p]
		}
		keys = sample
	}
	for _, k := range keys {
		var req selectsvc.SelectRequest
		if err := json.Unmarshal([]byte(k), &req); err != nil {
			return err
		}
		want, err := core.SelectOpt(req.Algo, snap, coreRequest(req), nil, core.Options{})
		got := e.cl.answers[k]
		switch {
		case err != nil:
			e.cl.fail("check %s: core.SelectOpt: %v", k, err)
		case !slices.Equal(want.Names(e.g), got.names()) || want.MinResource != got.minRes:
			e.cl.fail("check %s: service answered %v (%.6g), core.SelectOpt %v (%.6g)",
				k, got.names(), got.minRes, want.Names(e.g), want.MinResource)
		}
	}
	e.checked += len(keys)
	clear(e.cl.answers)
	return nil
}

// coreRequest mirrors the service's translation of a plain request.
func coreRequest(r selectsvc.SelectRequest) core.Request {
	return core.Request{
		M:               r.M,
		ComputePriority: r.Priority,
		RefCapacity:     r.RefCapacity,
		MinBW:           r.MinBW,
		MinCPU:          r.MinCPU,
		MinMemoryMB:     r.MinMemoryMB,
		MaxPairLatency:  r.MaxPairLatency,
	}
}

// get serves one GET through the handler.
func (e *env) get(path string) ([]byte, error) {
	r, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	e.rec.reset()
	e.h.ServeHTTP(&e.rec, r)
	if e.rec.code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, e.rec.code, e.rec.body.String())
	}
	return bytes.Clone(e.rec.body.Bytes()), nil
}

// residualDocument fetches GET /snapshot?mode=current&view=residual and
// applies its values to the harness's own graph, which already carries the
// route table, so a 10k-node check builds no second one.
func (e *env) residualDocument() (*topology.Snapshot, error) {
	body, err := e.get("/snapshot?mode=current&view=residual")
	if err != nil {
		return nil, err
	}
	dg, ds, err := topology.ReadDocument(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if dg.NumNodes() != e.g.NumNodes() || dg.NumLinks() != e.g.NumLinks() {
		return nil, fmt.Errorf("snapshot document has %d nodes, %d links; want %d, %d",
			dg.NumNodes(), dg.NumLinks(), e.g.NumNodes(), e.g.NumLinks())
	}
	snap := topology.NewSnapshot(e.g)
	snap.Time = ds.Time
	for id := 0; id < e.g.NumNodes(); id++ {
		if dg.Node(id).Name != e.g.Node(id).Name {
			return nil, fmt.Errorf("snapshot document node %d is %q, want %q", id, dg.Node(id).Name, e.g.Node(id).Name)
		}
		snap.LoadAvg[id] = ds.LoadAvg[id]
	}
	for l := 0; l < e.g.NumLinks(); l++ {
		a, b := dg.Link(l), e.g.Link(l)
		if a.A != b.A || a.B != b.B || a.Capacity != b.Capacity {
			return nil, fmt.Errorf("snapshot document link %d differs from the topology", l)
		}
		snap.AvailBW[l] = ds.AvailBW[l]
	}
	return snap, nil
}

// checkLeases audits the ledger: no node or link committed past capacity,
// and exactly the leases the client holds are active.
func (e *env) checkLeases() error {
	body, err := e.get("/leases")
	if err != nil {
		return err
	}
	var doc struct {
		Leases []struct {
			ID string `json:"id"`
		} `json:"leases"`
		MaxCPU float64 `json:"max_cpu_committed"`
		MaxBW  float64 `json:"max_bw_committed"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	const eps = 1e-9
	if doc.MaxCPU > 1+eps || doc.MaxBW > 1+eps {
		e.cl.fail("ledger over-committed: max cpu %g, max bw %g", doc.MaxCPU, doc.MaxBW)
	}
	var got []string
	for _, l := range doc.Leases {
		got = append(got, l.ID)
	}
	want := slices.Clone(e.cl.leases)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		e.cl.fail("ledger holds %d leases, client holds %d", len(got), len(want))
	}
	return nil
}

// planCacheCounts reads selectsvc_plan_cache_requests_total from /metrics.
func (e *env) planCacheCounts() (map[string]float64, error) {
	body, err := e.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, `selectsvc_plan_cache_requests_total{result="`)
		if !ok {
			continue
		}
		label, value, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(value, &v); err == nil {
			out[label] = v
		}
	}
	return out, sc.Err()
}

// heapMB returns the live heap in MB. It collects twice: sync.Pool
// contents survive one collection, so after a single one the heap still
// holds whatever a closed service's pools kept.
func heapMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// percentile returns the nearest-rank q-quantile of sorted values and the
// number of samples strictly beyond it.
func percentile(sorted []time.Duration, q float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank], len(sorted) - 1 - rank
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// newRand derives a labelled random source from the seed.
func newRand(seed int64, label string) *randx.Source { return randx.New(seed).Split(label) }

// fields returns the raw JSON values of the given keys of the object in
// body (nil for absent keys), scanning only its top level.
func fields(body []byte, keys ...string) [][]byte {
	out := make([][]byte, len(keys))
	i := bytes.IndexByte(body, '{') + 1
	for i > 0 && i < len(body) {
		i = skipSpace(body, i)
		if i >= len(body) || body[i] != '"' {
			break
		}
		keyEnd := skipValue(body, i)
		key := body[i+1 : keyEnd-1]
		i = skipSpace(body, keyEnd)
		if i >= len(body) || body[i] != ':' {
			break
		}
		start := skipSpace(body, i+1)
		end := skipValue(body, start)
		for k, want := range keys {
			if string(key) == want {
				out[k] = body[start:end]
			}
		}
		i = skipSpace(body, end)
		if i >= len(body) || body[i] != ',' {
			break
		}
		i++
	}
	return out
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the index just past the JSON value that starts at i.
func skipValue(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
	return i
}
