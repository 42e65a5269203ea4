package subgraphmr

import (
	"strings"
	"testing"
	"time"

	"subgraphmr/internal/directed"
	"subgraphmr/internal/tworound"
)

func TestFacadeDirected(t *testing.T) {
	g := directed.RandomDiGraph(20, 100, 2, 1)
	pt := directed.DirectedCycle(3, 0)
	res, err := EnumerateDirectedContext(t.Context(), g, pt, nil, WithBuckets(3), WithSeed(2))
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
	res2, err := EnumerateDirectedContext(t.Context(), g, custom, nil, WithBuckets(4))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(DirectedBruteForce(g, custom)); len(res2.Instances) != want {
		t.Errorf("custom pattern: %d, oracle %d", len(res2.Instances), want)
	}
}

// TestFacadeDirectedRejectsUnsupportedOptions: the directed path takes
// Plan's options, and each one it cannot honour is an error naming it,
// never a silently ignored knob.
func TestFacadeDirectedRejectsUnsupportedOptions(t *testing.T) {
	g := directed.RandomDiGraph(20, 60, 1, 1)
	pt := directed.DirectedCycle(3, 0)
	for name, opt := range map[string]Option{
		"WithStrategy":       WithStrategy(StrategyBucketOriented),
		"WithCycleCQs":       WithCycleCQs(),
		"WithCountOnly":      WithCountOnly(),
		"WithAdaptive":       WithAdaptive(),
		"WithWorkers":        WithWorkers([]string{"127.0.0.1:1"}),
		"WithDistributed":    WithDistributed(2),
		"WithWorkerTimeout":  WithWorkerTimeout(time.Second),
		"WithFaultInjection": WithFaultInjection(FaultSpec{Mode: FaultDrop}),
	} {
		_, err := EnumerateDirectedContext(t.Context(), g, pt, nil, WithBuckets(2), opt)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %v, want one naming the option", name, err)
		}
	}
	res, err := EnumerateDirectedContext(t.Context(), g, pt, nil, WithBuckets(2), WithParallelism(2), WithPartitions(3), WithSkewThreshold(2))
	if err != nil {
		t.Fatalf("supported options rejected: %v", err)
	}
	if res.Count != int64(len(DirectedBruteForce(g, pt))) || len(res.Jobs) != 1 {
		t.Errorf("directed result: count %d over %d jobs, oracle %d", res.Count, len(res.Jobs), len(DirectedBruteForce(g, pt)))
	}
}

// TestFacadeDirectedRejectsNilInput: a nil data graph or pattern is an
// error naming it, as Plan's nil inputs are, never a nil dereference.
func TestFacadeDirectedRejectsNilInput(t *testing.T) {
	g := directed.RandomDiGraph(20, 60, 1, 1)
	pt := directed.DirectedCycle(3, 0)
	for name, run := range map[string]func() error{
		"data graph": func() error {
			_, err := EnumerateDirectedContext(t.Context(), nil, pt, nil)
			return err
		},
		"pattern": func() error {
			_, err := EnumerateDirectedContext(t.Context(), g, nil, nil)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panicked: %v", r)
				}
			}()
			if err := run(); err == nil || !strings.Contains(err.Error(), name+" is nil") {
				t.Errorf("error %v, want one naming the nil %s", err, name)
			}
		})
	}
}

func TestFacadeDirectedBuilder(t *testing.T) {
	b := NewDiGraphBuilder(3)
	b.AddArc(0, 1, LabelKnows)
	b.AddArc(1, 2, LabelKnows)
	b.AddArc(2, 0, LabelKnows)
	g := b.Graph()
	res, err := EnumerateDirectedContext(t.Context(), g, directed.DirectedCycle(3, LabelKnows), nil, WithBuckets(2))
	if err != nil || len(res.Instances) != 1 {
		t.Errorf("directed triangle ring: %v, %d instances", err, len(res.Instances))
	}
	// The reversed ring is absent.
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
	if len(res.Jobs) != 2 || res.TotalComm() != 3*int64(g.NumEdges())+tworound.WedgeCount(g) {
		t.Errorf("cascade communication accounting off: %d jobs, %d pairs, want 3m+W = %d",
			len(res.Jobs), res.TotalComm(), 3*int64(g.NumEdges())+tworound.WedgeCount(g))
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
	res, err := EnumerateDirectedContext(t.Context(), g, ThreatRingPattern(4), nil, WithBuckets(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Errorf("threat ring instances = %d, want exactly 1", len(res.Instances))
	}
}
