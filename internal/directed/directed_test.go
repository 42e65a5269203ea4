package directed

import (
	"slices"
	"testing"

	"subgraphmr/internal/core"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/shares"
)

func TestDiBuilderBasics(t *testing.T) {
	b := NewDiBuilder(4)
	if !b.AddArc(0, 1, 0) {
		t.Fatal("first arc should be new")
	}
	if b.AddArc(0, 1, 0) {
		t.Error("duplicate arc accepted")
	}
	if !b.AddArc(1, 0, 0) {
		t.Error("reverse arc is distinct in a digraph")
	}
	if !b.AddArc(0, 1, 1) {
		t.Error("same endpoints, different label is distinct")
	}
	if b.AddArc(2, 2, 0) {
		t.Error("self-loop accepted")
	}
	g := b.Graph()
	if g.NumArcs() != 3 {
		t.Fatalf("arcs = %d, want 3", g.NumArcs())
	}
	if !g.HasArc(0, 1, 1) || g.HasArc(1, 0, 1) {
		t.Error("HasArc wrong")
	}
	if len(g.Out(0)) != 2 || len(g.In(0)) != 1 {
		t.Error("adjacency wrong")
	}
}

func TestPatternValidation(t *testing.T) {
	if _, err := NewPattern(2, nil); err == nil {
		t.Error("empty pattern should fail")
	}
	if _, err := NewPattern(2, []PatternArc{{0, 0, 0}}); err == nil {
		t.Error("self-loop pattern should fail")
	}
	if _, err := NewPattern(2, []PatternArc{{0, 5, 0}}); err == nil {
		t.Error("out-of-range pattern arc should fail")
	}
}

func TestDirectedAutomorphismGroups(t *testing.T) {
	// Directed p-cycle: cyclic group of order p (no flips).
	for _, p := range []int{3, 4, 5, 6} {
		if got := len(DirectedCycle(p, 0).Automorphisms()); got != p {
			t.Errorf("directed C%d: |Aut| = %d, want %d", p, got, p)
		}
	}
	// Directed path: trivial group.
	if got := len(DirectedPath(4, 0).Automorphisms()); got != 1 {
		t.Errorf("directed path: |Aut| = %d, want 1", got)
	}
	// Fan-in with 3 sources: the sources permute freely: 3! = 6.
	if got := len(FanIn(4, 0).Automorphisms()); got != 6 {
		t.Errorf("fan-in: |Aut| = %d, want 6", got)
	}
	// Mixed labels break symmetry: a 4-cycle with alternating labels has
	// only the rotations preserving the labeling (order 2).
	alt := MustPattern(4, []PatternArc{
		{0, 1, 0}, {1, 2, 1}, {2, 3, 0}, {3, 0, 1},
	})
	if got := len(alt.Automorphisms()); got != 2 {
		t.Errorf("alternating-label C4: |Aut| = %d, want 2", got)
	}
	// ThreatRing(3): rotations of the ring (3).
	if got := len(ThreatRing(3).Automorphisms()); got != 3 {
		t.Errorf("threat ring: |Aut| = %d, want 3", got)
	}
}

func TestDirectedEnumerateMatchesOracle(t *testing.T) {
	patterns := []*DiPattern{
		DirectedCycle(3, 0),
		DirectedCycle(4, 0),
		DirectedPath(3, 0),
		DirectedPath(4, 1),
		FanIn(4, 0),
		MustPattern(4, []PatternArc{{0, 1, 0}, {1, 2, 1}, {2, 3, 0}, {3, 0, 1}}),
		MustPattern(3, []PatternArc{{0, 1, 0}, {1, 2, 0}, {0, 2, 1}}),
	}
	for seed := int64(0); seed < 3; seed++ {
		g := RandomDiGraph(15, 70, 2, seed)
		for _, pt := range patterns {
			want := map[string]bool{}
			for _, phi := range BruteForce(g, pt) {
				want[pt.Key(phi)] = true
			}
			for _, b := range []int{1, 3, 5} {
				res, err := EnumerateContext(t.Context(), g, pt, core.Options{Buckets: b, Seed: 11}, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]bool{}
				for _, phi := range res.Instances {
					if !pt.IsInstance(g, phi) {
						t.Fatalf("b=%d: non-instance %v", b, phi)
					}
					k := pt.Key(phi)
					if got[k] {
						t.Fatalf("seed %d b=%d: duplicate instance %v", seed, b, phi)
					}
					got[k] = true
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d b=%d pattern %v: got %d, oracle %d",
						seed, b, pt.Arcs(), len(got), len(want))
				}
			}
		}
	}
}

func TestDirectedCommMatchesFormula(t *testing.T) {
	g := RandomDiGraph(40, 300, 3, 1)
	for _, tc := range []struct {
		pt *DiPattern
		b  int
	}{
		{DirectedCycle(3, 0), 6},
		{DirectedCycle(4, 1), 4},
		{FanIn(4, 0), 5},
	} {
		res, err := EnumerateContext(t.Context(), g, tc.pt, core.Options{Buckets: tc.b, Seed: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		job := res.Jobs[0]
		want := int64(PredictedCommPerArc(tc.b, tc.pt.P())) * int64(g.NumArcs())
		if job.Metrics.KeyValuePairs != want || job.PredictedCommPerEdge != PredictedCommPerArc(tc.b, tc.pt.P()) {
			t.Errorf("pattern p=%d b=%d: comm %d (predicted %v per arc), want %d",
				tc.pt.P(), tc.b, job.Metrics.KeyValuePairs, job.PredictedCommPerEdge, want)
		}
		if len(res.Jobs) != 1 || res.Count != int64(len(res.Instances)) || len(job.Shares) != tc.pt.P() || job.Shares[0] != tc.b {
			t.Errorf("pattern p=%d b=%d: result %d jobs, count %d for %d instances, shares %v",
				tc.pt.P(), tc.b, len(res.Jobs), res.Count, len(res.Instances), job.Shares)
		}
		if max := int64(shares.UsefulReducers(tc.b, tc.pt.P())); res.Jobs[0].Metrics.DistinctKeys > max {
			t.Errorf("reducers %d exceed C(b+p-1,p)=%d", res.Jobs[0].Metrics.DistinctKeys, max)
		}
	}
}

// TestBruteForceCountsByHand pins the oracle on graphs whose instance
// counts are known in closed form, so it is checked by something other
// than the reducers' matcher it judges.
func TestBruteForceCountsByHand(t *testing.T) {
	const n = 6
	b := NewDiBuilder(n)
	for u := graph.Node(0); u < n; u++ {
		for v := graph.Node(0); v < n; v++ {
			if u != v {
				b.AddArc(u, v, 0)
			}
		}
	}
	b.AddArc(0, 1, 1)
	complete := b.Graph()
	for _, tc := range []struct {
		name string
		pt   *DiPattern
		want int
	}{
		{"directed 3-cycles: two orientations per triple", DirectedCycle(3, 0), 2 * 20},
		{"directed 3-paths: every ordered triple", DirectedPath(3, 0), 6 * 5 * 4},
		{"fan-in 3: a sink and an unordered pair of sources", FanIn(3, 0), 6 * 10},
		{"a label-1 arc: only 0→1 carries one", DirectedPath(2, 1), 1},
		{"label-1 then label-0", MustPattern(3, []PatternArc{{0, 1, 1}, {1, 2, 0}}), 4},
	} {
		got := BruteForce(complete, tc.pt)
		if len(got) != tc.want {
			t.Errorf("%s: %d instances, want %d", tc.name, len(got), tc.want)
		}
		for i, phi := range got {
			if !tc.pt.IsInstance(complete, phi) || !tc.pt.IsCanonical(phi) {
				t.Errorf("%s: %v is not a canonical instance", tc.name, phi)
			}
			if i > 0 && slices.Compare(got[i-1], phi) >= 0 {
				t.Errorf("%s: %v after %v — not sorted and unique", tc.name, phi, got[i-1])
			}
		}
	}
}

func TestThreatRingPlanted(t *testing.T) {
	// Plant a 3-person buys-from ring all booked on one flight; find it.
	b := NewDiBuilder(50)
	// People 0,1,2; flight node 3.
	for i := int32(0); i < 3; i++ {
		b.AddArc(i, 3, LabelBookedOn)
		b.AddArc(i, (i+1)%3, LabelBuysFrom)
	}
	// Noise.
	g0 := RandomDiGraph(50, 200, 3, 5)
	for _, a := range g0.Arcs() {
		b.AddArc(a.From, a.To, a.Label)
	}
	g := b.Graph()
	pt := ThreatRing(3)
	res, err := EnumerateContext(t.Context(), g, pt, core.Options{Buckets: 4, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, phi := range res.Instances {
		if phi[3] == 3 { // the flight node
			found = true
		}
	}
	if !found {
		t.Errorf("planted threat ring not found (found %d instances)", len(res.Instances))
	}
	// Exactly-once against the oracle.
	if want := len(BruteForce(g, pt)); len(res.Instances) != want {
		t.Errorf("found %d rings, oracle %d", len(res.Instances), want)
	}
}

func TestDisconnectedPatternRejected(t *testing.T) {
	pt := MustPattern(4, []PatternArc{{0, 1, 0}, {2, 3, 0}})
	g := RandomDiGraph(10, 30, 1, 1)
	if _, err := EnumerateContext(t.Context(), g, pt, core.Options{}, nil); err == nil {
		t.Error("weakly disconnected pattern should be rejected")
	}
}

func TestDirectedCanonical(t *testing.T) {
	pt := DirectedCycle(3, 0)
	// The orbit of (5, 7, 9) under rotations: exactly one canonical member.
	orbit := [][]graph.Node{{5, 7, 9}, {7, 9, 5}, {9, 5, 7}}
	canonical := 0
	key := pt.Key(orbit[0])
	for _, phi := range orbit {
		if pt.IsCanonical(phi) {
			canonical++
		}
		if pt.Key(phi) != key {
			t.Error("orbit members should share a key")
		}
	}
	if canonical != 1 {
		t.Errorf("%d canonical members, want 1", canonical)
	}
	// The reversed cycle is a different instance (direction matters).
	if pt.Key([]graph.Node{5, 9, 7}) == key {
		t.Error("reversed directed cycle should be a distinct instance")
	}
}

// TestArcMapperAllocations: a block id is arithmetic on two hashes — no
// allocation per input arc.
func TestArcMapperAllocations(t *testing.T) {
	m := arcMapper{graph.NodeHash{Seed: 5, B: 4}}
	stored := 0
	emit := func(int, Arc) { stored++ }
	if allocs := testing.AllocsPerRun(100, func() { m.Map(Arc{From: 17, To: 4242, Label: 2}, emit) }); allocs != 0 {
		t.Errorf("%v allocs per arc, want 0", allocs)
	}
	if stored == 0 {
		t.Fatal("the mapper stored nothing; the test measures nothing")
	}
}

// TestBlockLoadsMatchPairMapper: the job's reducers receive, key by key,
// the arcs the per-pair Section 4.5 mapper shipped before replication went
// by reference — every nondecreasing p-tuple of buckets containing both
// endpoint buckets — so its communication metrics are what they were.
func TestBlockLoadsMatchPairMapper(t *testing.T) {
	g := RandomDiGraph(30, 120, 3, 7)
	for _, pt := range []*DiPattern{DirectedCycle(3, 0), FanIn(4, 1), ThreatRing(3)} {
		p, b := pt.P(), 3
		h := graph.NodeHash{Seed: 9 + 0x6a09e667f3bcc909, B: b}
		want := map[graph.BucketKey]int{}
		free := make([]int, p-2, p)
		var rec func(a Arc, i, from int)
		rec = func(a Arc, i, from int) {
			if i == p-2 {
				want[graph.MultisetKey(append(free, h.Bucket(a.From), h.Bucket(a.To))...)]++
				return
			}
			for x := from; x < b; x++ {
				free[i] = x
				rec(a, i+1, x)
			}
		}
		var pairs, maxLoad int64
		for _, a := range g.Arcs() {
			rec(a, 0, 0)
		}
		for _, n := range want {
			pairs += int64(n)
			maxLoad = max(maxLoad, int64(n))
		}
		res, err := EnumerateContext(t.Context(), g, pt, core.Options{Buckets: b, Seed: 9}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m := res.Jobs[0].Metrics; m.KeyValuePairs != pairs || m.DistinctKeys != int64(len(want)) || m.MaxReducerInput != maxLoad {
			t.Errorf("%v: job shipped %d pairs to %d reducers, at most %d; the pair mapper %d to %d, at most %d",
				pt, m.KeyValuePairs, m.DistinctKeys, m.MaxReducerInput, pairs, len(want), maxLoad)
		}
	}
}

// TestArcCodec: the 10-byte arc value round-trips on top of the shared key
// half and refuses a torn value.
func TestArcCodec(t *testing.T) {
	c := arcCodec{graph.EdgeKeyCodec{P: 3}}
	a := Arc{From: 1 << 20, To: 3, Label: 0xBEEF}
	vb := c.AppendValue(nil, a)
	if got, err := c.DecodeValue(vb); err != nil || got != a || len(vb) != 10 {
		t.Fatalf("arc round trip: %v %v (%d bytes)", got, err, len(vb))
	}
	if _, err := c.DecodeValue(vb[:8]); err == nil {
		t.Error("an 8-byte arc should fail to decode")
	}
}
