package lease

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Every ledger transition — acquire, batch, renew, release, migrate and
// expire — is a record appended to the ledger's log (the Replicator), and
// takes effect only when Apply installs the committed record. The lock is
// not held across the append: that would freeze every read for a quorum
// round-trip or an fsync per write. Instead each write runs in three
// phases:
//
//  1. Under the lock: validate, run admission against the residual view,
//     and *optimistically reserve* the outcome (a pending lease, a
//     reserve-new-alongside-old handover, an inflight marker). The
//     reservation debits capacity immediately, so a concurrent admission
//     cannot double-count it, but stays invisible to readers.
//  2. Unlocked: append the record through the log, which returns once the
//     record is committed — fsynced to the WAL, or on a replication
//     majority — AND Apply has run locally.
//  3. Under the lock again: observe what Apply did. Success means Apply
//     finalized the reservation; failure rolls the optimistic half back
//     (and if the record still commits later — a quorum ack can race an
//     error — Apply reconciles by installing from the record itself).
//
// Apply is the only place committed records mutate ledger state. On a
// replicated ledger it runs in log order on every replica, leader
// included, which is what makes the cluster's ledgers converge; a WAL is
// recovered by installing the records it folded. The one decision that
// depends on the kind of log is who expires overdue leases (sweepLocked).

// localLog is the log of a ledger that is not replicated: its WAL when it
// has one, nothing at all when it lives only in memory. A record is
// committed once it is appended (and fsynced), and is applied at once.
type localLog struct {
	// mu makes append-then-Apply one step, so the records of any one
	// lease are applied in the order the WAL holds them and replay lands
	// on the state memory had. The lazy sweep is the one writer that
	// bypasses mu: it appends OpExpire straight to the WAL under the
	// ledger lock (which Apply takes, so it cannot take mu). That is safe
	// because the sweep never expires a lease with a pending, inflight or
	// handover mark, so no other record of that lease is between append
	// and Apply.
	mu  sync.Mutex
	l   *Ledger
	wal *WAL
}

func (lg *localLog) Replicate(ctx context.Context, rec *Record) error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.wal != nil {
		if err := lg.wal.append(ctx, *rec); err != nil {
			return fmt.Errorf("lease: wal: %w", err)
		}
	}
	lg.l.Apply(*rec)
	return nil
}

// Apply installs one committed transition. The log calls it in log order
// — on a replicated ledger on every replica, leader included — and it
// doubles as the finalizer for the proposer's optimistic reservation. It
// must be deterministic: given the same record sequence, every replica's
// ledger converges to identical leases, debits and stats, regardless of
// local clocks (which is why expiry decisions compare against the record's
// stamp, never time.Now).
func (l *Ledger) Apply(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyLocked(rec)
}

// applyLocked is Apply with l.mu held.
func (l *Ledger) applyLocked(rec Record) {
	if seq := rec.Seq(); seq >= l.nextID {
		l.nextID = seq + 1
	}
	switch rec.Op {
	case OpNoop:
	case OpAcquire:
		l.applyAcquireLocked(rec)
	case OpBatch:
		// One committed record, many acquires: apply the nested records in
		// their stored (priority) order, exactly as the proposer solved
		// them. All-or-nothing durability is the record framing's job — a
		// batch is one log line — so by the time Apply sees it, every
		// nested acquire is committed. (rec.Seq() already advanced the ID
		// counter past the highest nested sequence above.)
		for _, sub := range rec.Batch {
			l.applyAcquireLocked(sub)
		}
	case OpMigrate:
		ls, ok := l.leases[rec.ID]
		if ok && ls.handoverVer != 0 && l.nodeNamesMatchLocked(rec.Nodes, ls.pendingNodes) {
			// Finalize the proposer's reserve-new-alongside-old handover:
			// the new half is already debited, so return the old half and
			// promote.
			l.debitLocked(-1, ls.Nodes, ls.Demand.CPU, ls.linkBW)
			ls.Nodes, ls.linkBW = ls.pendingNodes, ls.pendingLinkBW
			ls.pendingNodes, ls.pendingLinkBW, ls.handoverVer = nil, nil, 0
			l.version++
			l.stats.Migrated++
			l.event("migrate", ls)
			return
		}
		// Follower (or replay) path: a migrate record carries the full
		// post-handover lease, so it is a wholesale replacement — except
		// for the term, which migration never changes: a renew committed
		// after the migrate was proposed stays in force, as it does on the
		// proposer.
		if ok {
			rec.ExpiryUnixMS = ls.Expiry.UnixMilli()
			l.dropLocked(ls)
		}
		if ls := l.installRecordLocked(rec); ls != nil {
			l.stats.Migrated++
			l.event("migrate", ls)
		}
	case OpRenew:
		if ls, ok := l.leases[rec.ID]; ok {
			ls.Expiry = time.UnixMilli(rec.ExpiryUnixMS)
			l.stats.Renewed++
			l.event("renew", ls)
		}
	case OpRelease:
		if ls, ok := l.leases[rec.ID]; ok {
			l.dropLocked(ls)
			l.stats.Released++
			l.event("release", ls)
		}
	case OpExpire:
		ls, ok := l.leases[rec.ID]
		if !ok {
			return
		}
		if rec.ExpiryUnixMS != 0 && ls.Expiry.UnixMilli() > rec.ExpiryUnixMS {
			// A renew committed between the sweep's proposal and this
			// record: the term the proposer saw expire has been superseded,
			// and every replica skips the drop by the same comparison.
			return
		}
		l.dropLocked(ls)
		l.stats.Expired++
		l.event("expire", ls)
	}
}

// applyAcquireLocked installs one committed acquire: it finalizes the
// proposer's own pending reservation when one exists, or installs the
// lease wholesale from the record (follower and replay paths). Callers
// hold l.mu.
func (l *Ledger) applyAcquireLocked(rec Record) {
	if ls, ok := l.leases[rec.ID]; ok {
		if ls.pending {
			// Finalize the proposer's own reservation: debits are already
			// in place, the lease just becomes visible.
			ls.pending = false
			l.version++
			l.stats.Acquired++
			l.event("acquire", ls)
			return
		}
		// Same ID already live (log replayed over a warm ledger):
		// replace wholesale rather than double-debit.
		l.dropLocked(ls)
	}
	if ls := l.installRecordLocked(rec); ls != nil {
		l.stats.Acquired++
		l.event("acquire", ls)
	}
}

// installRecordLocked creates a lease wholesale from an acquire- or
// migrate-shaped record: node names resolved against the current topology,
// link debits recomputed from its routes. Records naming unknown nodes are
// skipped (counted in RecoverySkipped) — the same degradation WAL recovery
// gives after a topology change. No expiry clock check happens here: applying is
// deterministic, and reclaiming overdue leases is the sweep's job. Callers
// hold l.mu.
func (l *Ledger) installRecordLocked(rec Record) *Lease {
	nodes := make([]int, 0, len(rec.Nodes))
	for _, name := range rec.Nodes {
		id := l.g.NodeByName(name)
		if id < 0 {
			l.stats.RecoverySkipped++
			return nil
		}
		nodes = append(nodes, id)
	}
	sort.Ints(nodes)
	d := Demand{CPU: rec.CPU, BW: rec.BW}
	debits := make(map[int]float64)
	if d.BW > 0 {
		for lid, flows := range l.g.FlowLinkCounts(nodes) {
			debits[lid] = float64(flows) * d.BW
		}
	}
	ls := &Lease{
		ID:      rec.ID,
		Nodes:   nodes,
		Demand:  d,
		Shape:   rec.Shape.clone(),
		Created: time.UnixMilli(rec.CreatedUnixMS),
		Expiry:  time.UnixMilli(rec.ExpiryUnixMS),
		linkBW:  debits,
	}
	l.debitLocked(1, nodes, d.CPU, debits)
	l.leases[ls.ID] = ls
	l.version++
	return ls
}

// nodeNamesMatchLocked reports whether the record's node names are exactly
// the given node IDs (both sides sorted the same way: IDs ascending, names
// in ID order). Callers hold l.mu.
func (l *Ledger) nodeNamesMatchLocked(names []string, ids []int) bool {
	if len(names) != len(ids) {
		return false
	}
	for i, id := range ids {
		if l.g.Node(id).Name != names[i] {
			return false
		}
	}
	return true
}
