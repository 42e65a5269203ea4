package multijoin

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"subgraphmr/internal/mapreduce"
)

func randomRelations(p, n int, domain int64, seed int64) []*Relation {
	rng := rand.New(rand.NewSource(seed))
	rels := make([]*Relation, p)
	for i := range rels {
		tuples := make([]Tuple, n)
		for j := range tuples {
			tuples[j] = Tuple{rng.Int63n(domain), rng.Int63n(domain)}
		}
		rels[i] = NewRelation(tuples)
	}
	return rels
}

func sameRows(t *testing.T, got, want [][]int64) {
	t.Helper()
	SortRows(got)
	SortRows(want)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if RowKey(got[i]) != RowKey(want[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCycleJoinChainMatchesSerial checks the cascade against the serial
// backtracking join on random instances of several cycle lengths.
func TestCycleJoinChainMatchesSerial(t *testing.T) {
	for _, p := range []int{3, 4, 5, 6} {
		rels := randomRelations(p, 120, 15, int64(p))
		want, _ := CycleJoin(rels)
		got, chain, err := CycleJoinChain(t.Context(), rels, mapreduce.Config{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
		if chain.NumRounds() != p-1 {
			t.Errorf("p=%d: %d rounds, want %d", p, chain.NumRounds(), p-1)
		}
		total := chain.Total()
		if total.KeyValuePairs == 0 || total.Outputs < int64(len(want)) {
			t.Errorf("p=%d: implausible chain metrics %+v", p, total)
		}
	}
}

// TestCycleJoinChainWorstCases exercises the paper's extremal instances.
func TestCycleJoinChainWorstCases(t *testing.T) {
	relsA := WorstCaseA(3)
	wantA, _ := CycleJoin(relsA)
	gotA, _, err := CycleJoinChain(t.Context(), relsA, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, gotA, wantA)
	if len(gotA) != 3*3*3*3*3 {
		t.Errorf("case A output = %d, want d^5 = 243", len(gotA))
	}

	relsB := WorstCaseB(4, 3, 5, 7)
	wantB, _ := CycleJoin(relsB)
	gotB, _, err := CycleJoinChain(t.Context(), relsB, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, gotB, wantB)
}

// TestCycleJoinChainMaterializesIntermediates confirms the cascade ships
// the intermediate relation the one-round algorithms avoid: round metrics
// include the partial paths, not just the base relations.
func TestCycleJoinChainMaterializesIntermediates(t *testing.T) {
	rels := WorstCaseA(3) // every round's join is a full d×d grid
	_, chain, err := CycleJoinChain(t.Context(), rels, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r0 := chain.Rounds[0].Metrics
	// Round 1 ships the 9 R1-paths plus the 9 R2-tuples.
	if r0.KeyValuePairs != 18 {
		t.Errorf("round 1 shipped %d pairs, want 18", r0.KeyValuePairs)
	}
	// Later rounds ship d^(i+1) paths + d² tuples; round 3 ships 81+9.
	r2 := chain.Rounds[2].Metrics
	if r2.KeyValuePairs != 81+9 {
		t.Errorf("round 3 shipped %d pairs, want 90", r2.KeyValuePairs)
	}
}

// TestCycleJoinChainUnderBudget: every round's items are fixed-size, so a
// budgeted cascade spills through DefaultCodec and returns the in-memory
// rows with the same per-round communication and reducer counts.
func TestCycleJoinChainUnderBudget(t *testing.T) {
	rels := randomRelations(4, 40, 8, 3)
	want, wantChain, err := CycleJoinChain(t.Context(), rels, mapreduce.Config{Parallelism: 2})
	if err != nil || len(want) == 0 {
		t.Fatalf("in memory: %d rows, %v; want some rows", len(want), err)
	}
	for _, budget := range []int64{1, 1 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			got, chain, err := CycleJoinChain(t.Context(), rels, mapreduce.Config{Parallelism: 2, MemoryBudget: budget, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, want)
			if chain.NumRounds() != wantChain.NumRounds() {
				t.Fatalf("%d rounds, want %d", chain.NumRounds(), wantChain.NumRounds())
			}
			for i, r := range chain.Rounds {
				w := wantChain.Rounds[i].Metrics
				if r.Metrics.KeyValuePairs != w.KeyValuePairs || r.Metrics.DistinctKeys != w.DistinctKeys {
					t.Errorf("%s: %d pairs over %d keys, in memory %d over %d",
						r.Name, r.Metrics.KeyValuePairs, r.Metrics.DistinctKeys, w.KeyValuePairs, w.DistinctKeys)
				}
			}
			if chain.Total().SpilledPairs == 0 {
				t.Error("nothing spilled")
			}
		})
	}
}

// TestCycleJoinChainRejectsBadInput: fewer than three relations, or a nil
// one anywhere in the cycle, is an error — no panic, no silent empty
// answer, no goroutine left behind.
func TestCycleJoinChainRejectsBadInput(t *testing.T) {
	rel := NewRelation([]Tuple{{A: 1, B: 2}, {A: 2, B: 1}})
	baseline := runtime.NumGoroutine()
	for name, rels := range map[string][]*Relation{
		"no relations":    nil,
		"two relations":   {rel, rel},
		"a nil relation":  {rel, nil, rel},
		"a nil last one":  {rel, rel, rel, nil},
		"a nil first one": {nil, rel, rel},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panicked: %v", r)
				}
			}()
			if rows, _, err := CycleJoinChain(t.Context(), rels, mapreduce.Config{}); err == nil {
				t.Errorf("%d rows and no error", len(rows))
			}
		})
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
}
