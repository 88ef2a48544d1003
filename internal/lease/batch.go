package lease

import (
	"context"
	"fmt"
	"sort"
	"time"

	"nodeselect/internal/reqtrace"
	"nodeselect/internal/topology"
)

// Epoch-batch admission: AcquireBatch admits a whole window of concurrent
// select+admit requests in one critical section and commits them as ONE
// log record (one fsync; one replication round on a replicated ledger).
// The batch is solved strictly serially against the ledger's residual
// view — each item's placement sees every earlier item's debits — in a
// deterministic priority order, so the outcome is exactly what replaying
// the same requests one at a time in that order would produce. That
// serial-equivalence is the correctness contract (property-tested in
// batch_test.go); batching buys throughput only by amortizing the
// per-transition durability cost, never by relaxing admission.

// BatchItem is one admission request inside a batch.
type BatchItem struct {
	// Ctx carries the item's request trace; nil means context.Background.
	// Placement spans and the nested WAL record's RequestID come from it.
	Ctx context.Context
	// Demand, TTL, Shape and Place mean exactly what they mean on
	// AcquireShaped.
	Demand Demand
	TTL    time.Duration
	Shape  *Shape
	Place  PlaceFunc
	// Key is the deterministic tiebreak between items of equal demand —
	// canonically the client request ID. Ordering by Key before arrival
	// sequence is what makes the commit order a pure function of the
	// request set: shuffling arrival within a window cannot reorder items
	// with distinct keys.
	Key string
	// Seq is the arrival sequence within the window, the final tiebreak
	// for items whose demand and key both collide.
	Seq uint64
}

// BatchResult is the per-item outcome, in the same order the items were
// given (not priority order).
type BatchResult struct {
	Info Info
	Err  error
}

func (it *BatchItem) ctx() context.Context {
	if it.Ctx != nil {
		return it.Ctx
	}
	return context.Background()
}

// batchLess is the deterministic admission priority: larger demands first
// (CPU, then bandwidth — the hardest items get first pick of capacity,
// which also maximizes packing for the leftovers), then request Key, then
// arrival sequence. Key precedes Seq so that identical request sets
// arriving in shuffled order still commit identically.
func batchLess(a, b *BatchItem) bool {
	if a.Demand.CPU != b.Demand.CPU {
		return a.Demand.CPU > b.Demand.CPU
	}
	if a.Demand.BW != b.Demand.BW {
		return a.Demand.BW > b.Demand.BW
	}
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Seq < b.Seq
}

// batchOrder returns item indices in admission priority order.
func batchOrder(items []BatchItem) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return batchLess(&items[order[i]], &items[order[j]])
	})
	return order
}

// AcquireBatch admits every item of the batch in one critical section:
// expired leases are swept once, then each item runs the same
// place-then-admission-check sequence as Acquire — in priority order,
// against the residual view that already includes every earlier item's
// debits — and each accepted item is reserved as a pending lease. The
// accepted set is then committed as a single OpBatch record: one fsync on
// a WAL, one quorum round on a replicated ledger. Apply finalizes every
// pending lease in the record's order. Rejected items carry their
// AdmissionError (or placer error) in their BatchResult; a failed append
// fails the whole accepted set and rolls its debits back
// (all-or-nothing, matching the one-line-one-fsync crash story).
func (l *Ledger) AcquireBatch(ctx context.Context, snap *topology.Snapshot, items []BatchItem) []BatchResult {
	ctx, span := reqtrace.StartSpan(ctx, "lease.acquire_batch")
	span.SetAttr("items", fmt.Sprint(len(items)))
	defer span.End()
	return l.acquire(ctx, snap, items, true)
}

// acquire is the one admission path behind Acquire and AcquireBatch. Phase
// 1, under the lock, reserves a pending lease per accepted item (debits in
// place so later items and concurrent admissions see them, the lease
// invisible to reads); phase 2 appends one record to the log — OpBatch
// for a batch, the plain acquire record for a single Acquire; phase 3
// observes what Apply did: finalized leases on success, rollback of every
// still-pending reservation on failure.
func (l *Ledger) acquire(ctx context.Context, snap *topology.Snapshot, items []BatchItem, batch bool) []BatchResult {
	res := make([]BatchResult, len(items))
	if snap == nil || snap.Graph != l.g {
		for i := range res {
			res[i].Err = errForeignSnapshot
		}
		return res
	}
	type accepted struct {
		idx int
		ls  *Lease
	}
	var acc []accepted
	var nested []Record
	l.mu.Lock()
	log := l.log
	now := l.opt.Now()
	l.sweepLocked(now)
	for _, idx := range batchOrder(items) {
		it := &items[idx]
		if err := it.Demand.Validate(); err != nil {
			res[idx].Err = err
			continue
		}
		nodes, debits, err := l.placeAdmitLocked(it.ctx(), snap, it.Demand, it.Place)
		if err != nil {
			res[idx].Err = err
			continue
		}
		ls := &Lease{
			ID:      fmt.Sprintf("lease-%d", l.nextID),
			Nodes:   append([]int(nil), nodes...),
			Demand:  it.Demand,
			Shape:   it.Shape.clone(),
			Created: now,
			Expiry:  now.Add(l.clampTTL(it.TTL)),
			linkBW:  debits,
			pending: true,
		}
		sort.Ints(ls.Nodes)
		l.nextID++
		l.debitLocked(1, ls.Nodes, ls.Demand.CPU, debits)
		l.leases[ls.ID] = ls
		l.version++
		acc = append(acc, accepted{idx, ls})
		rec := acquireRecord(l.g, ls)
		rec.RequestID = reqtrace.TraceID(it.ctx())
		nested = append(nested, rec)
	}
	l.mu.Unlock()
	if len(acc) == 0 {
		return res
	}
	rec := nested[0]
	if batch {
		rec = Record{Op: OpBatch, Batch: nested, RequestID: reqtrace.TraceID(ctx)}
	}

	err := log.Replicate(ctx, &rec)

	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range acc {
		if !a.ls.pending {
			// Apply finalized the reservation, possibly racing an append
			// error: the committed state wins over the error.
			res[a.idx].Info = l.infoLocked(a.ls)
			continue
		}
		// The commit did not (visibly) happen: return the reservation. If
		// the record commits after all, Apply re-installs it from the
		// record — the ID is burned either way.
		if l.leases[a.ls.ID] == a.ls {
			l.dropLocked(a.ls)
		}
		if res[a.idx].Err = err; err == nil {
			res[a.idx].Err = fmt.Errorf("lease: acquire %q committed without applying", a.ls.ID)
		}
	}
	if err == nil && batch {
		l.stats.Batches++
	}
	return res
}
