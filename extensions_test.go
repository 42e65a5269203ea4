package subgraphmr

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

func TestFacadeDirected(t *testing.T) {
	g := RandomDiGraph(20, 100, 2, 1)
	pt := DirectedCyclePattern(3, 0)
	res, err := EnumerateDirectedContext(t.Context(), g, pt, DirectedOptions{Buckets: 3, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(DirectedBruteForce(g, pt)); len(res.Instances) != want {
		t.Errorf("directed triangles: %d, oracle %d", len(res.Instances), want)
	}
	// A custom labeled pattern through the facade.
	custom, err := NewDiPattern(3, []PatternArc{
		{From: 0, To: 1, Label: LabelKnows},
		{From: 1, To: 2, Label: LabelBuysFrom},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := EnumerateDirectedContext(t.Context(), g, custom, DirectedOptions{Buckets: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(DirectedBruteForce(g, custom)); len(res2.Instances) != want {
		t.Errorf("custom pattern: %d, oracle %d", len(res2.Instances), want)
	}
}

func TestFacadeDirectedBuilder(t *testing.T) {
	b := NewDiGraphBuilder(3)
	b.AddArc(0, 1, LabelKnows)
	b.AddArc(1, 2, LabelKnows)
	b.AddArc(2, 0, LabelKnows)
	g := b.Graph()
	res, err := EnumerateDirectedContext(t.Context(), g, DirectedCyclePattern(3, LabelKnows), DirectedOptions{Buckets: 2}, nil)
	if err != nil || len(res.Instances) != 1 {
		t.Errorf("directed triangle ring: %v, %d instances", err, len(res.Instances))
	}
	// The reversed ring is absent.
	rev := DirectedCyclePattern(3, LabelKnows)
	_ = rev
	if g.HasArc(1, 0, LabelKnows) {
		t.Error("reverse arc should not exist")
	}
}

func TestFacadeTwoRound(t *testing.T) {
	g := Gnm(40, 170, 2)
	res := planRun(t, g, Triangle(), WithStrategy(StrategyTwoRound))
	if res.Count != CountTriangles(g) {
		t.Errorf("cascade count %d, serial %d", res.Count, CountTriangles(g))
	}
	// Round 1 ships each edge twice; round 2 ships every wedge plus each
	// edge once.
	if len(res.Jobs) != 2 || res.TotalComm() != 3*int64(g.NumEdges())+WedgeCount(g) {
		t.Errorf("cascade communication accounting off: %d jobs, %d pairs, want 3m+W = %d",
			len(res.Jobs), res.TotalComm(), 3*int64(g.NumEdges())+WedgeCount(g))
	}
}

func TestFacadeApprox(t *testing.T) {
	g := Gnm(150, 1800, 3)
	exact := float64(CountTriangles(g))
	est := DoulionTriangles(g, 0.5, 40, 9)
	if math.Abs(est-exact) > 0.2*exact {
		t.Errorf("doulion %v vs exact %v", est, exact)
	}
	p3 := float64(len(BruteForce(Gnm(25, 60, 1), PathSample(3))))
	cc := ColorCodingPaths(Gnm(25, 60, 1), 3, 300, 4)
	if math.Abs(cc-p3) > 0.25*p3+2 {
		t.Errorf("color coding %v vs exact %v", cc, p3)
	}
}

func TestFacadeThreatRing(t *testing.T) {
	// Build the Section 1.1 scenario end to end through the facade.
	b := NewDiGraphBuilder(10)
	for i := Node(0); i < 4; i++ {
		b.AddArc(i, 9, LabelBookedOn)       // all booked on flight 9
		b.AddArc(i, (i+1)%4, LabelBuysFrom) // buys-from ring
		b.AddArc(i, (i+2)%4+4, LabelKnows)  // noise
	}
	g := b.Graph()
	res, err := EnumerateDirectedContext(t.Context(), g, ThreatRingPattern(4), DirectedOptions{Buckets: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Errorf("threat ring instances = %d, want exactly 1", len(res.Instances))
	}
}

// TestCascadeExportsRejectBadInput: the two map-reduce exports of the
// paper's Sections 5 and 7.4 answer bad input with an error — no panic, no
// silent empty answer, no goroutine left behind.
func TestCascadeExportsRejectBadInput(t *testing.T) {
	rel := NewJoinRelation([]JoinTuple{{A: 1, B: 2}, {A: 2, B: 1}})
	cases := map[string]func() error{}
	for _, p := range []int{-1, 0, 2, 63, 64} {
		cases[fmt.Sprintf("class counts p=%d", p)] = func() error {
			_, _, err := CycleClassCountsMR(t.Context(), p, EngineConfig{})
			return err
		}
	}
	for name, rels := range map[string][]*JoinRelation{
		"no relations":    nil,
		"two relations":   {rel, rel},
		"a nil relation":  {rel, nil, rel},
		"a nil last one":  {rel, rel, rel, nil},
		"a nil first one": {nil, rel, rel},
	} {
		cases["cycle join, "+name] = func() error {
			_, _, err := CycleJoinChain(t.Context(), rels, EngineConfig{})
			return err
		}
	}
	baseline := runtime.NumGoroutine()
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panicked: %v", r)
				}
			}()
			if err := run(); err == nil {
				t.Error("no error")
			}
		})
	}
	waitForGoroutines(t, baseline)
}
