package lease

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"nodeselect/internal/topology"
)

// fixedPlace is a PlaceFunc that ignores the residual view and returns a
// predetermined node set — handy for steering handovers in tests.
func fixedPlace(nodes ...int) PlaceFunc {
	return func(context.Context, *topology.Snapshot, float64) ([]int, error) {
		return append([]int(nil), nodes...), nil
	}
}

// Renewing a lease whose term has already passed — but which the TTL
// sweeper has not reclaimed yet — must reject with the typed expired
// error, not resurrect the reservation (regression for the issue-5
// satellite: drive the injected clock past expiry, renew before any sweep).
func TestRenewExpiredLeaseRejects(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 4, Options{Now: clock.Now})

	info, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.8}, time.Minute, fixedPlace(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute) // past expiry; no sweep has run

	_, err = l.Renew(context.Background(), info.ID, time.Minute)
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("renew after expiry: err = %v, want ErrExpired", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("expired lease misreported as never existing: %v", err)
	}
	// The reservation must not have been resurrected: the capacity is free
	// again, so a conflicting admission on the same nodes succeeds.
	if _, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.8}, time.Minute, fixedPlace(1, 2)); err != nil {
		t.Fatalf("capacity not reclaimed after rejected renew: %v", err)
	}
	if st := l.Stats(); st.Expired != 1 || st.Renewed != 0 {
		t.Fatalf("stats = %+v, want Expired=1 Renewed=0", st)
	}
}

func TestMigrateHandover(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 6, Options{Now: clock.Now})

	var ops []string
	l.SetOnEvent(func(op string, ls *Lease) { ops = append(ops, op) })

	info, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.5, BW: 20e6}, 5*time.Minute, fixedPlace(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	v0 := l.Version()

	moved, err := l.Migrate(context.Background(), snap, info.ID, fixedPlace(4, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if moved.ID != info.ID {
		t.Fatalf("migrate changed the lease ID: %q -> %q", info.ID, moved.ID)
	}
	if !moved.ExpiresAt.Equal(info.ExpiresAt) {
		t.Fatalf("migrate changed expiry: %v -> %v", info.ExpiresAt, moved.ExpiresAt)
	}
	want := []string{"n-4", "n-5", "n-6"}
	if len(moved.Nodes) != 3 || moved.Nodes[0] != want[0] || moved.Nodes[1] != want[1] || moved.Nodes[2] != want[2] {
		t.Fatalf("nodes after migrate = %v, want %v", moved.Nodes, want)
	}
	if l.Version() <= v0 {
		t.Fatal("migrate did not bump the ledger version")
	}
	if st := l.Stats(); st.Migrated != 1 {
		t.Fatalf("stats = %+v, want Migrated=1", st)
	}
	found := false
	for _, op := range ops {
		if op == "migrate" {
			found = true
		}
	}
	if !found {
		t.Fatalf("observer ops = %v, want a migrate event", ops)
	}

	// Every debit moved: the old nodes and their access links are fully
	// credited, the new ones carry exactly the lease's demand.
	nodeCPU, linkBW := l.Committed()
	for id := 1; id <= 3; id++ {
		if nodeCPU[id] != 0 {
			t.Fatalf("old node %d still holds %.2f cpu", id, nodeCPU[id])
		}
	}
	for id := 4; id <= 6; id++ {
		if math.Abs(nodeCPU[id]-0.5) > 1e-12 {
			t.Fatalf("new node %d holds %.2f cpu, want 0.5", id, nodeCPU[id])
		}
	}
	var total float64
	for _, bw := range linkBW {
		total += bw
	}
	// m=3 on a star: 3 access links x 2 flows x 20e6.
	if math.Abs(total-120e6) > 1 {
		t.Fatalf("total link debit %v, want 120e6 on the new links only", total)
	}
}

// The new set must fit *alongside* the old reservation; a shared node
// without headroom for both is the binding bottleneck and the lease keeps
// its current placement.
func TestMigrateRejectsWhenNewSetCannotFitAlongside(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 4, Options{Now: clock.Now})

	info, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.6}, time.Minute, fixedPlace(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	v0 := l.Version()

	_, err = l.Migrate(context.Background(), snap, info.ID, fixedPlace(2, 3))
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("migrate onto an overlapping node: err = %v, want AdmissionError", err)
	}
	if adm.Kind != "node" || adm.Bottleneck != "n-2" {
		t.Fatalf("bottleneck = %s %q, want node n-2", adm.Kind, adm.Bottleneck)
	}
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("admission error does not unwrap to ErrRejected: %v", err)
	}
	// Rejection leaves the ledger untouched.
	if l.Version() != v0 {
		t.Fatal("rejected migrate bumped the ledger version")
	}
	cur, ok := l.Get(info.ID)
	if !ok || len(cur.Nodes) != 2 || cur.Nodes[0] != "n-1" || cur.Nodes[1] != "n-2" {
		t.Fatalf("lease after rejected migrate = %+v", cur)
	}
	if st := l.Stats(); st.Rejected != 1 || st.Migrated != 0 {
		t.Fatalf("stats = %+v, want Rejected=1 Migrated=0", st)
	}
}

func TestMigrateSameNodesIsNoOp(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 4, Options{Now: clock.Now})

	info, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.4, BW: 10e6}, time.Minute, fixedPlace(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	v0 := l.Version()

	same, err := l.Migrate(context.Background(), snap, info.ID, fixedPlace(2, 1)) // unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Nodes) != 2 || same.Nodes[0] != "n-1" || same.Nodes[1] != "n-2" {
		t.Fatalf("no-op migrate returned nodes %v", same.Nodes)
	}
	if l.Version() != v0 {
		t.Fatal("no-op migrate bumped the ledger version")
	}
	if st := l.Stats(); st.Migrated != 0 {
		t.Fatalf("stats = %+v, want Migrated=0 for a no-op", st)
	}
}

func TestMigrateErrors(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 4, Options{Now: clock.Now})

	if _, err := l.Migrate(context.Background(), snap, "lease-99", fixedPlace(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("migrate of unknown lease: err = %v, want ErrNotFound", err)
	}

	info, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.3}, time.Minute, fixedPlace(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	if _, err := l.Migrate(context.Background(), snap, info.ID, fixedPlace(3)); !errors.Is(err, ErrExpired) {
		t.Fatalf("migrate of expired lease: err = %v, want ErrExpired", err)
	}

	info2, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.3}, time.Minute, fixedPlace(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Migrate(context.Background(), snap, info2.ID, fixedPlace(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("migrate on a closed ledger: err = %v, want ErrClosed", err)
	}
}

func TestResidualExcluding(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 6, Options{Now: clock.Now})

	a, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.5, BW: 30e6}, time.Minute, fixedPlace(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.3}, time.Minute, fixedPlace(2, 3))
	if err != nil {
		t.Fatal(err)
	}

	// Excluding A leaves only B's debits: node 2 keeps B's 0.3 CPU, node 1
	// and A's links are back at full capacity.
	resid, err := l.ResidualExcluding(snap, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := resid.CPU(1); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("node 1 residual cpu %v, want 1.0 with A excluded", got)
	}
	if got := resid.CPU(2); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("node 2 residual cpu %v, want 0.7 (B's debit only)", got)
	}
	for lid, bw := range resid.AvailBW {
		if math.Abs(bw-100e6) > 1 {
			t.Fatalf("link %d residual %v, want full capacity with A excluded", lid, bw)
		}
	}

	if _, err := l.ResidualExcluding(snap, "lease-99"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("excluding unknown lease: err = %v, want ErrNotFound", err)
	}

	// Sole tenant: excluding the only lease yields the raw snapshot.
	if err := l.Release(context.Background(), b.ID); err != nil {
		t.Fatal(err)
	}
	resid, err = l.ResidualExcluding(snap, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resid != snap {
		t.Fatal("sole-tenant exclusion should return the raw snapshot")
	}
}

// The shape recorded at acquire time and the post-handover placement both
// survive a restart: replaying acquire + migrate lands on exactly the new
// node set, carrying the original request shape.
func TestWALPersistsShapeAndMigration(t *testing.T) {
	clock := newFakeClock()
	l, dir := newWALLedger(t, 6, clock)
	snap := newSnap(l)

	shape := &Shape{M: 3, Algo: "balanced", MinBW: 10e6, MinCPU: 0.4, Pin: []string{"n-1"}}
	info, err := l.AcquireShaped(context.Background(), snap, Demand{CPU: 0.4, BW: 10e6}, 10*time.Minute, shape, fixedPlace(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if info.Request == nil || info.Request.M != 3 || info.Request.Algo != "balanced" {
		t.Fatalf("acquire info shape = %+v", info.Request)
	}
	if _, err := l.Migrate(context.Background(), snap, info.ID, fixedPlace(4, 5, 6)); err != nil {
		t.Fatal(err)
	}

	l2 := reopen(t, l, dir, Options{Now: clock.Now})
	defer l2.Close()
	if st := l2.Stats(); st.Recovered != 1 {
		t.Fatalf("recovered stats = %+v, want Recovered=1", st)
	}
	got, ok := l2.Get(info.ID)
	if !ok {
		t.Fatalf("lease %s lost across restart", info.ID)
	}
	if len(got.Nodes) != 3 || got.Nodes[0] != "n-4" || got.Nodes[1] != "n-5" || got.Nodes[2] != "n-6" {
		t.Fatalf("recovered nodes = %v, want the post-migration set", got.Nodes)
	}
	if got.Request == nil || got.Request.M != 3 || got.Request.Algo != "balanced" ||
		got.Request.MinBW != 10e6 || len(got.Request.Pin) != 1 || got.Request.Pin[0] != "n-1" {
		t.Fatalf("recovered shape = %+v", got.Request)
	}
	// The recovered debits sit on the new nodes only.
	nodeCPU, _ := l2.Committed()
	for id := 1; id <= 3; id++ {
		if nodeCPU[id] != 0 {
			t.Fatalf("old node %d still debited %.2f after recovery", id, nodeCPU[id])
		}
	}
	for id := 4; id <= 6; id++ {
		if math.Abs(nodeCPU[id]-0.4) > 1e-12 {
			t.Fatalf("new node %d debited %.2f after recovery, want 0.4", id, nodeCPU[id])
		}
	}
}

// holdMigrate freezes migrate proposals until release is closed, so a test
// can commit other records of the same lease ahead of the migrate record.
type holdMigrate struct {
	*stubReplicator
	held, release chan struct{}
}

func (h *holdMigrate) Replicate(ctx context.Context, rec *Record) error {
	if rec.Op == OpMigrate {
		close(h.held)
		<-h.release
	}
	return h.stubReplicator.Replicate(ctx, rec)
}

// A renew that commits while a migrate handover is in flight lands in the
// log ahead of the migrate record, which still carries the old term. The
// renewed expiry must survive the migrate everywhere: on the proposer, on
// a follower, in a WAL's fold of the same records, and in a ledger
// crash-recovered from that WAL.
func TestRenewCommittedDuringMigrateKeepsExpiry(t *testing.T) {
	clock := newFakeClock()
	ctx := context.Background()
	leader, follower, stub := newReplicatedPair(t, 6, clock)
	hold := &holdMigrate{stubReplicator: stub, held: make(chan struct{}), release: make(chan struct{})}
	leader.SetReplicator(hold)
	snap := topology.NewSnapshot(leader.Graph())

	info, err := leader.Acquire(ctx, snap, Demand{CPU: 0.4, BW: 5e6}, time.Minute, fixedPlace(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	migrated := make(chan error, 1)
	go func() {
		_, err := leader.Migrate(ctx, snap, info.ID, fixedPlace(3, 4))
		migrated <- err
	}()
	<-hold.held
	clock.Advance(10 * time.Second)
	renewed, err := leader.Renew(ctx, info.ID, 5*time.Minute)
	close(hold.release)
	if err != nil {
		t.Fatalf("renew during handover: %v", err)
	}
	if err := <-migrated; err != nil {
		t.Fatalf("migrate: %v", err)
	}
	want := renewed.ExpiresAt
	if !want.After(info.ExpiresAt) {
		t.Fatalf("renewed expiry %v not after original %v", want, info.ExpiresAt)
	}
	if ops := []string{stub.log[1].Op, stub.log[2].Op}; ops[0] != OpRenew || ops[1] != OpMigrate {
		t.Fatalf("log order %v, want the renew committed ahead of the migrate", ops)
	}

	check := func(label string, l *Ledger) {
		t.Helper()
		got, ok := l.Get(info.ID)
		if !ok {
			t.Fatalf("%s: lease %s missing", label, info.ID)
		}
		if !got.ExpiresAt.Equal(want) {
			t.Fatalf("%s: expiry %v, want the renewed %v", label, got.ExpiresAt, want)
		}
		if fmt.Sprint(got.Nodes) != fmt.Sprint([]string{leader.Graph().Node(3).Name, leader.Graph().Node(4).Name}) {
			t.Fatalf("%s: nodes %v, want the migrated placement", label, got.Nodes)
		}
	}
	check("leader", leader)
	check("follower", follower)
	assertConverged(t, leader, follower)

	// The same committed records, in log order, through a WAL.
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, rec := range stub.log {
		if err := w.append(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.live[info.ID].ExpiryUnixMS; got != want.UnixMilli() {
		t.Fatalf("wal fold: expiry %v, want the renewed %v", time.UnixMilli(got), want)
	}
	crashed, _ := recoverWALState(t, captureWALState(t, dir), leader.Graph(), clock)
	check("crash-restarted wal ledger", crashed)
}
