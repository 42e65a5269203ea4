package core

import (
	"sort"
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
)

func sortInstances(xs [][]graph.Node) {
	sort.Slice(xs, func(i, j int) bool {
		for k := range xs[i] {
			if xs[i][k] != xs[j][k] {
				return xs[i][k] < xs[j][k]
			}
		}
		return false
	})
}

// TestEnumerateDecomposedMatchesSerial checks the Theorem 6.1 conversion
// against the serial decomposition algorithm on several samples and
// graphs: identical canonical instance sets, each exactly once.
func TestEnumerateDecomposedMatchesSerial(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnm":      graph.Gnm(60, 240, 3),
		"powerlaw": graph.PowerLaw(80, 6, 2.3, 5),
	}
	samples := map[string]*sample.Sample{
		"triangle": sample.Triangle(),
		"path3":    sample.Path(3),
		"square":   sample.Square(),
		"lollipop": sample.Lollipop(),
	}
	for gname, g := range graphs {
		for sname, s := range samples {
			want, _, err := serial.EnumerateByDecomposition(g, s, nil)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", gname, sname, err)
			}
			var got [][]graph.Node
			res, err := EnumerateDecomposed(t.Context(), g, s, nil, Options{Buckets: 3, Seed: 11, Parallelism: 4}, func(phi []graph.Node) bool {
				got = append(got, phi)
				return true
			})
			if err != nil {
				t.Fatalf("%s/%s mr: %v", gname, sname, err)
			}
			sortInstances(got)
			sortInstances(want)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d instances, want %d", gname, sname, len(got), len(want))
			}
			for i := range want {
				for k := range want[i] {
					if got[i][k] != want[i][k] {
						t.Fatalf("%s/%s instance %d: %v, want %v", gname, sname, i, got[i], want[i])
					}
				}
			}
			if res.Count != int64(len(want)) {
				t.Errorf("%s/%s: Count = %d, want %d", gname, sname, res.Count, len(want))
			}
			if len(res.Jobs) != 1 || res.Jobs[0].Metrics.KeyValuePairs == 0 {
				t.Errorf("%s/%s: missing job stats: %+v", gname, sname, res.Jobs)
			}
		}
	}
}

// TestEnumerateDecomposedCountOnly checks the counting path.
func TestEnumerateDecomposedCountOnly(t *testing.T) {
	g := graph.Gnm(80, 400, 9)
	s := sample.Triangle()
	var delivered int64
	full, err := EnumerateDecomposed(t.Context(), g, s, nil, Options{Buckets: 4, Seed: 2}, func([]graph.Node) bool {
		delivered++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	counted, err := EnumerateDecomposed(t.Context(), g, s, nil, Options{Buckets: 4, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := counted.Jobs[0].Metrics.Outputs; n != 0 {
		t.Errorf("count-only run emitted %d instances from its reducers", n)
	}
	if counted.Count != full.Count || full.Count != delivered {
		t.Errorf("count-only = %d, full = %d, delivered %d", counted.Count, full.Count, delivered)
	}
}

// TestEnumerateDecomposedRejectsBadParts checks decomposition validation.
func TestEnumerateDecomposedRejectsBadParts(t *testing.T) {
	g := graph.Gnm(20, 40, 1)
	s := sample.Triangle()
	if _, err := EnumerateDecomposed(t.Context(), g, s, []sample.Part{
		{Kind: sample.IsolatedNode, Vars: []int{0}},
	}, Options{Buckets: 2}, nil); err == nil {
		t.Error("incomplete decomposition accepted")
	}
	disc, err := sample.New(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnumerateDecomposed(t.Context(), g, disc, nil, Options{Buckets: 2}, nil); err == nil {
		t.Error("disconnected sample accepted")
	}
}
