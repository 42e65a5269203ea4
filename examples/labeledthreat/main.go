// Labeled, directed threat query — the paper's Section 1.1 scenario and
// its conclusions' extension: "find all instances of five people booked on
// the same flight each of whom has bought explosive materials" becomes a
// directed, edge-labeled pattern; a graph with labeled edges is a
// collection of relations, one per label, and the same single-round
// map-reduce scheme applies.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"subgraphmr"
)

func main() {
	const (
		people  = 2000
		flights = 50
	)
	total := people + flights
	rng := rand.New(rand.NewSource(7))
	b := subgraphmr.NewDiGraphBuilder(total)
	flightNode := func(f int) subgraphmr.Node { return subgraphmr.Node(people + f) }

	// Background: random bookings and purchases.
	for i := 0; i < 4*people; i++ {
		p := subgraphmr.Node(rng.Intn(people))
		b.AddArc(p, flightNode(rng.Intn(flights)), subgraphmr.LabelBookedOn)
	}
	for i := 0; i < 2*people; i++ {
		u := subgraphmr.Node(rng.Intn(people))
		v := subgraphmr.Node(rng.Intn(people))
		if u != v {
			b.AddArc(u, v, subgraphmr.LabelBuysFrom)
		}
	}

	// The plot: four conspirators on flight 13 forming a buys-from ring.
	ring := []subgraphmr.Node{100, 200, 300, 400}
	for i, p := range ring {
		b.AddArc(p, flightNode(13), subgraphmr.LabelBookedOn)
		b.AddArc(p, ring[(i+1)%len(ring)], subgraphmr.LabelBuysFrom)
	}
	g := b.Graph()
	fmt.Printf("transaction/travel graph: %d nodes, %d labeled arcs\n\n", g.NumNodes(), g.NumArcs())

	// The query: k people booked on one flight forming a buys-from ring.
	k := len(ring)
	pattern := subgraphmr.ThreatRingPattern(k)
	fmt.Printf("pattern: %d people on a common flight + buys-from ring "+
		"(p=%d, |Aut|=%d — rotations of the ring)\n",
		k, pattern.P(), len(pattern.Automorphisms()))

	// Stream matches as the engine finds them — the same cancellable,
	// backpressured delivery the undirected Instances iterator uses. A
	// real deployment would alert on the first hit and cancel ctx.
	matches := 0
	res, err := subgraphmr.EnumerateDirectedContext(context.Background(), g, pattern,
		func(phi []subgraphmr.Node) bool {
			fmt.Printf("  ring %v all booked on flight %d\n", phi[:k], phi[k]-people)
			matches++
			return true
		},
		subgraphmr.WithBuckets(4), subgraphmr.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	job := res.Jobs[0]
	fmt.Printf("\none map-reduce round: %d key-value pairs (%.1f per arc), %d reducers\n",
		job.Metrics.KeyValuePairs,
		float64(job.Metrics.KeyValuePairs)/float64(g.NumArcs()),
		job.Metrics.DistinctKeys)
	fmt.Printf("matches: %d\n", matches)

	// Cross-check against the exhaustive oracle.
	oracle := subgraphmr.DirectedBruteForce(g, pattern)
	if len(oracle) != matches {
		log.Fatalf("map-reduce found %d, oracle %d", matches, len(oracle))
	}
	fmt.Printf("\noracle agrees: %d instance(s), each found exactly once\n", len(oracle))
}
