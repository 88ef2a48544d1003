package topology

import "fmt"

// routeTable holds static all-pairs routes. Networks in the paper's setting
// use static routing: even when the physical topology has cycles, a fixed
// path carries all traffic between a given pair of nodes (§3.3 "Cycles in
// network topology"). We model that with deterministic shortest-path routes
// (minimum hop count, ties broken by traversal order over link IDs).
type routeTable struct {
	n int
	// next[src*n+dst] is the link ID of the first hop from src towards
	// dst, or -1 when dst is unreachable or equal to src.
	next []int
	// hops[src*n+dst] is the hop count, or -1 when unreachable.
	hops []int
}

// Routes builds (or returns the cached) static routing table.
func (g *Graph) Routes() *routeTable {
	if rt := g.routes.Load(); rt != nil {
		return rt
	}
	g.routesMu.Lock()
	defer g.routesMu.Unlock()
	if rt := g.routes.Load(); rt != nil {
		return rt
	}
	n := len(g.nodes)
	rt := &routeTable{
		n:    n,
		next: make([]int, n*n),
		hops: make([]int, n*n),
	}
	for i := range rt.next {
		rt.next[i] = -1
		rt.hops[i] = -1
	}
	// BFS from every destination so that next-hop pointers chain towards
	// the destination.
	queue := make([]int, 0, n)
	for dst := 0; dst < n; dst++ {
		base := func(src int) int { return src*n + dst }
		rt.hops[base(dst)] = 0
		queue = append(queue[:0], dst)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, lid := range g.adj[u] {
				v := g.links[lid].Other(u)
				if rt.hops[base(v)] < 0 {
					rt.hops[base(v)] = rt.hops[base(u)] + 1
					rt.next[base(v)] = lid
					queue = append(queue, v)
				}
			}
		}
	}
	g.routes.Store(rt)
	return rt
}

// Route returns the static route from a to b as a sequence of link IDs.
// The route is empty when a == b. It panics if b is unreachable from a
// (use Validate to ensure connectivity first).
func (g *Graph) Route(a, b int) []int {
	rt := g.Routes()
	if a == b {
		return nil
	}
	if rt.hops[a*rt.n+b] < 0 {
		panic(fmt.Sprintf("topology: no route from node %d to node %d", a, b))
	}
	var out []int
	for u := a; u != b; {
		lid := rt.next[u*rt.n+b]
		out = append(out, lid)
		u = g.links[lid].Other(u)
	}
	return out
}

// WalkRoute visits the link IDs on the static route from a to b, in path
// order, without allocating. It visits nothing when a == b and panics when
// b is unreachable, exactly as Route does. The hot selection paths (all-
// pairs scoring) use this form; Route remains for callers that want the
// path materialized.
func (g *Graph) WalkRoute(a, b int, visit func(linkID int)) {
	if a == b {
		return
	}
	rt := g.Routes()
	if rt.hops[a*rt.n+b] < 0 {
		panic(fmt.Sprintf("topology: no route from node %d to node %d", a, b))
	}
	for u := a; u != b; {
		lid := rt.next[u*rt.n+b]
		visit(lid)
		u = g.links[lid].Other(u)
	}
}

// Reachable reports whether b is reachable from a over the static routes.
func (g *Graph) Reachable(a, b int) bool {
	if a == b {
		return true
	}
	rt := g.Routes()
	return rt.hops[a*rt.n+b] >= 0
}

// HopCount returns the number of links on the static route from a to b, or
// -1 when unreachable.
func (g *Graph) HopCount(a, b int) int {
	rt := g.Routes()
	return rt.hops[a*rt.n+b]
}

// PathNodes returns the node IDs visited on the route from a to b,
// inclusive of both endpoints.
func (g *Graph) PathNodes(a, b int) []int {
	out := []int{a}
	for _, lid := range g.Route(a, b) {
		out = append(out, g.links[lid].Other(out[len(out)-1]))
	}
	return out
}

// PathLatency returns the sum of link latencies along the route from a to b.
func (g *Graph) PathLatency(a, b int) float64 {
	sum := 0.0
	g.WalkRoute(a, b, func(lid int) { sum += g.links[lid].Latency })
	return sum
}

// FlowLinkCounts returns, for the all-pairs flow pattern over the given
// nodes, how many pairwise flows cross each link: counts[linkID] is the
// number of unordered node pairs whose static route uses the link. Links
// carried by no flow are absent from the map. This is the multiplicity a
// reservation ledger must debit per link: a link shared by k flows of an
// application demanding B bits/second per flow carries k*B.
func (g *Graph) FlowLinkCounts(nodes []int) map[int]int {
	counts := make(map[int]int)
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			for _, lid := range g.Route(nodes[i], nodes[j]) {
				counts[lid]++
			}
		}
	}
	return counts
}

// PathBottleneck returns the minimum of value(linkID) over the route from a
// to b. For a == b it returns +Inf semantics via ok=false: the second
// return value reports whether the route has at least one link.
func (g *Graph) PathBottleneck(a, b int, value func(linkID int) float64) (float64, bool) {
	route := g.Route(a, b)
	if len(route) == 0 {
		return 0, false
	}
	min := value(route[0])
	for _, lid := range route[1:] {
		if v := value(lid); v < min {
			min = v
		}
	}
	return min, true
}
