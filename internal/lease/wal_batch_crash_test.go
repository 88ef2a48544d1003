package lease

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodeselect/internal/topology"
)

// captureWALState copies the WAL directory's files into a fresh dir — the
// exact bytes a crash at this instant would leave behind (appends are
// fsynced before the ledger acks, so the live file contents are the
// durable state).
func captureWALState(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for _, name := range []string{"ledger.wal.jsonl", "ledger.snap.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// recoverWALState runs crash recovery over a captured state: open the WAL
// and build a fresh ledger, with no clean shutdown in between.
func recoverWALState(t *testing.T, dir string, g *topology.Graph, clock *fakeClock) (*Ledger, *WAL) {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(g, Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	return l, w
}

func assertCommitted(t *testing.T, l *Ledger, wantCPU, wantBW []float64, label string) {
	t.Helper()
	gotCPU, gotBW := l.Committed()
	for i := range wantCPU {
		if math.Abs(gotCPU[i]-wantCPU[i]) > 1e-12 {
			t.Fatalf("%s: node %d cpu %v, want %v", label, i, gotCPU[i], wantCPU[i])
		}
	}
	for i := range wantBW {
		if math.Abs(gotBW[i]-wantBW[i]) > 1 {
			t.Fatalf("%s: link %d bw %v, want %v", label, i, gotBW[i], wantBW[i])
		}
	}
}

// TestWALCompactionBatchCrashMatrix pins the crash story around a WAL
// snapshot compaction racing an in-flight AcquireBatch. The dangerous
// window is compaction (snapshot rename + log truncate) immediately
// followed by the batch's single OpBatch append: a crash anywhere in that
// sequence must recover to the full pre-batch state or the full
// post-batch state — never a torn middle (a subset of the batch, or
// double-counted debits from replaying a live record over its own
// snapshot entry). Four captured disk states cover the window:
//
//	A: compaction finished, batch not yet appended    → pre-batch
//	B: compaction + intact batch line                 → post-batch
//	C: compaction + torn batch line (crash mid-fsync) → pre-batch, whole
//	D: snapshot renamed but log NOT truncated (crash
//	   inside compact between rename and truncate)    → pre-batch, debits
//	   counted once despite every record replaying over the snapshot
func TestWALCompactionBatchCrashMatrix(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := starGraph(8)
	l, err := New(g, Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	snap := newSnap(l)

	// Pre-batch world: two live leases plus a burned ID from a released
	// one, so the compacted snapshot carries a NextSeq past the log's
	// visible history.
	a, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.3, BW: 20e6}, time.Hour, balancedPlace(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.1}, time.Hour, balancedPlace(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(context.Background(), churn.ID); err != nil {
		t.Fatal(err)
	}
	b, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.2}, time.Hour, balancedPlace(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	preIDs := map[string]bool{a.ID: true, b.ID: true}
	preCPU, preBW := l.Committed()
	preCPU = append([]float64(nil), preCPU...)
	preBW = append([]float64(nil), preBW...)

	// State D's log: the full pre-compaction history, as a crash between
	// the snapshot rename and the log truncate would leave it.
	stateD := captureWALState(t, dir)

	// Compact, exactly as the WAL does once CompactEvery records accumulate.
	if err := w.compact(); err != nil {
		t.Fatal(err)
	}

	// State A: crash after compaction, before the batch commits.
	stateA := captureWALState(t, dir)
	// Finish state D: pair the post-compaction snapshot with the
	// untruncated log.
	snapDoc, err := os.ReadFile(filepath.Join(dir, "ledger.snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateD, "ledger.snap.json"), snapDoc, 0o644); err != nil {
		t.Fatal(err)
	}

	// The in-flight batch commits: one OpBatch line, one fsync.
	results := l.AcquireBatch(context.Background(), snap, []BatchItem{
		{Demand: Demand{CPU: 0.25, BW: 10e6}, TTL: 5 * time.Minute, Place: balancedPlace(2, 0), Key: "b1"},
		{Demand: Demand{CPU: 0.15}, TTL: 5 * time.Minute, Place: balancedPlace(2, 0), Key: "b2"},
		{Demand: Demand{CPU: 0.05}, TTL: 5 * time.Minute, Place: balancedPlace(1, 0), Key: "b3"},
	})
	batchIDs := map[string]bool{}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch item %d rejected: %v", i, r.Err)
		}
		batchIDs[r.Info.ID] = true
	}
	postCPU, postBW := l.Committed()

	// State B: crash after the batch's fsync completed.
	stateB := captureWALState(t, dir)
	// State C: crash mid-append — the batch line is torn. Chop into the
	// JSON so the line cannot parse; recovery must drop the batch whole.
	stateC := captureWALState(t, dir)
	logC := filepath.Join(stateC, "ledger.wal.jsonl")
	logData, err := os.ReadFile(logC)
	if err != nil {
		t.Fatal(err)
	}
	if len(logData) < 16 || !strings.Contains(string(logData), `"op":"batch"`) {
		t.Fatalf("state C log does not hold the batch line: %q", logData)
	}
	if err := os.WriteFile(logC, logData[:len(logData)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	// A: full pre-batch state.
	lA, _ := recoverWALState(t, stateA, g, clock)
	if lA.Len() != len(preIDs) {
		t.Fatalf("state A recovered %d leases, want %d", lA.Len(), len(preIDs))
	}
	for id := range preIDs {
		if _, ok := lA.Get(id); !ok {
			t.Fatalf("state A lost pre-batch lease %s", id)
		}
	}
	assertCommitted(t, lA, preCPU, preBW, "state A")
	// The released lease's ID stays burned through the snapshot's NextSeq.
	if next, err := lA.Acquire(context.Background(), newSnap(lA), Demand{}, time.Hour, balancedPlace(1, 0)); err != nil {
		t.Fatal(err)
	} else if leaseSeq(next.ID) <= leaseSeq(churn.ID) {
		t.Fatalf("state A reissued ID %s at or below released %s", next.ID, churn.ID)
	}

	// B: full post-batch state.
	lB, _ := recoverWALState(t, stateB, g, clock)
	if lB.Len() != len(preIDs)+len(batchIDs) {
		t.Fatalf("state B recovered %d leases, want %d", lB.Len(), len(preIDs)+len(batchIDs))
	}
	for id := range batchIDs {
		info, ok := lB.Get(id)
		if !ok {
			t.Fatalf("state B lost batch lease %s", id)
		}
		if want := clock.Now().Add(5 * time.Minute); !info.ExpiresAt.Equal(want) {
			t.Fatalf("state B lease %s expiry %v, want %v", id, info.ExpiresAt, want)
		}
	}
	assertCommitted(t, lB, postCPU, postBW, "state B")

	// C: the torn batch drops whole — pre-batch state, never a subset.
	wC, err := OpenWAL(stateC)
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	wC.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	lC, err := New(g, Options{Now: clock.Now, WAL: wC})
	if err != nil {
		t.Fatalf("torn batch line must not fail recovery: %v", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "torn") {
		t.Fatalf("state C: want one torn-tail warning, got %q", warnings)
	}
	for id := range batchIDs {
		if _, ok := lC.Get(id); ok {
			t.Fatalf("state C recovered batch lease %s from a torn line", id)
		}
	}
	if lC.Len() != len(preIDs) {
		t.Fatalf("state C recovered %d leases, want the %d pre-batch ones", lC.Len(), len(preIDs))
	}
	assertCommitted(t, lC, preCPU, preBW, "state C")

	// D: every live record replays on top of its own snapshot entry; the
	// result must be the pre-batch state with debits counted exactly once.
	lD, _ := recoverWALState(t, stateD, g, clock)
	if lD.Len() != len(preIDs) {
		t.Fatalf("state D recovered %d leases, want %d", lD.Len(), len(preIDs))
	}
	if st := lD.Stats(); st.Recovered != int64(len(preIDs)) || st.RecoverySkipped != 0 {
		t.Fatalf("state D recovery stats %+v", st)
	}
	assertCommitted(t, lD, preCPU, preBW, "state D")
}
