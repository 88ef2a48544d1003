package lease

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nodeselect/internal/topology"
)

// modeScript drives one seeded transition script — acquires, a 3-item
// batch, renews, releases, migrations and expiry by clock advance — and
// returns the outcome of every step. All randomness comes from the seed,
// and which lease a step targets is picked from the ledger's own Active
// list, so ledgers that behave alike run identical scripts.
func modeScript(t *testing.T, l *Ledger, clock *fakeClock, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	snap := topology.NewSnapshot(l.Graph())
	var out []string
	note := func(op string, info Info, err error) {
		out = append(out, fmt.Sprintf("%s %s %v err=%v", op, info.ID, info.Nodes, err))
	}
	pick := func() (string, bool) {
		active := l.Active()
		if len(active) == 0 {
			return "", false
		}
		return active[rng.Intn(len(active))].ID, true
	}
	demand := func() Demand {
		return Demand{CPU: 0.15 * float64(1+rng.Intn(5)), BW: 10e6 * float64(rng.Intn(3))}
	}
	ttl := func() time.Duration { return time.Duration(1+rng.Intn(6)) * time.Minute }
	for round := 0; round < 4; round++ {
		for i := 0; i < 2; i++ {
			info, err := l.Acquire(ctx, snap, demand(), ttl(), balancedPlace(1+rng.Intn(3), 0))
			note("acquire", info, err)
		}
		items := make([]BatchItem, 3)
		for i := range items {
			items[i] = BatchItem{Demand: demand(), TTL: ttl(), Place: balancedPlace(1+rng.Intn(3), 0),
				Key: fmt.Sprintf("r%d-%d", round, i), Seq: uint64(i)}
		}
		for _, r := range l.AcquireBatch(ctx, snap, items) {
			note("batch", r.Info, r.Err)
		}
		if id, ok := pick(); ok {
			info, err := l.Renew(ctx, id, ttl())
			note("renew "+id, info, err)
		}
		if id, ok := pick(); ok {
			note("release "+id, Info{}, l.Release(ctx, id))
		}
		// Any ID ever issued, live or long gone.
		id := fmt.Sprintf("lease-%d", rng.Intn(8*(round+1)))
		note("release "+id, Info{}, l.Release(ctx, id))
		if id, ok := pick(); ok {
			var nodes []int
			for _, n := range rng.Perm(8)[:1+rng.Intn(3)] {
				nodes = append(nodes, n+1) // compute nodes n-1..n-8
			}
			info, err := l.Migrate(ctx, snap, id, fixedPlace(nodes...))
			note("migrate "+id, info, err)
		}
		clock.Advance(time.Duration(rng.Intn(4)) * time.Minute)
		out = append(out, fmt.Sprintf("sweep %d", l.Sweep()))
	}
	return out
}

// TestModeEquivalence is the wall that keeps the ledger's modes from
// drifting apart: one seeded script on an in-memory ledger, a WAL-backed
// one and a replicated one must produce the same outcomes and end with
// identical Active, Committed and Stats. The WAL ledger, restarted from
// its directory — after a crash and after a clean Close — must recover
// the same active set.
func TestModeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			memClock, walClock, repClock := newFakeClock(), newFakeClock(), newFakeClock()
			mem, err := New(starGraph(8), Options{Now: memClock.Now})
			if err != nil {
				t.Fatal(err)
			}
			wal, dir := newWALLedger(t, 8, walClock)
			rep, follower, _ := newReplicatedPair(t, 8, repClock)

			want := modeScript(t, mem, memClock, seed)
			for name, l := range map[string]*Ledger{"wal": wal, "replicated": rep} {
				clock := walClock
				if l == rep {
					clock = repClock
				}
				if got := modeScript(t, l, clock, seed); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s outcomes diverge from in-memory:\n got %q\nwant %q", name, got, want)
				}
				if got, want := l.Active(), mem.Active(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s active set %+v, in-memory %+v", name, got, want)
				}
				gotCPU, gotBW := l.Committed()
				wantCPU, wantBW := mem.Committed()
				if !reflect.DeepEqual(gotCPU, wantCPU) || !reflect.DeepEqual(gotBW, wantBW) {
					t.Fatalf("%s committed %v %v, in-memory %v %v", name, gotCPU, gotBW, wantCPU, wantBW)
				}
				if got, want := l.Stats(), mem.Stats(); got != want {
					t.Fatalf("%s stats %+v, in-memory %+v", name, got, want)
				}
			}
			assertConverged(t, rep, follower)

			sameActive := func(label string, got []Info) {
				t.Helper()
				want := mem.Active()
				if len(got) != len(want) {
					t.Fatalf("%s: recovered %d leases, want %d", label, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || fmt.Sprint(got[i].Nodes) != fmt.Sprint(want[i].Nodes) ||
						!got[i].ExpiresAt.Equal(want[i].ExpiresAt) {
						t.Fatalf("%s: lease %d recovered as %+v, want %+v", label, i, got[i], want[i])
					}
				}
			}
			crashed, _ := recoverWALState(t, captureWALState(t, dir), wal.Graph(), walClock)
			sameActive("crash restart", crashed.Active())
			sameActive("clean restart", reopen(t, wal, dir, Options{Now: walClock.Now}).Active())
		})
	}
}
