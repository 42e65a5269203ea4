package graph

import (
	"slices"
	"testing"
)

// TestSlabSlicesAreTheCallers: every slice a Slab hands out is capped, so
// appending to one never writes into another, and a later chunk never
// reuses an earlier one's memory.
func TestSlabSlicesAreTheCallers(t *testing.T) {
	var s Slab
	var kept [][]Node
	for i := range 3 * slabInstances {
		width := 1 + i%5 // widths vary within a chunk
		phi := s.Take(width)
		if len(phi) != width || cap(phi) != width {
			t.Fatalf("Take(%d) = len %d cap %d", width, len(phi), cap(phi))
		}
		for j := range phi {
			phi[j] = Node(i)
		}
		kept = append(kept, phi)
		if i%7 == 0 {
			kept = append(kept, s.Copy([]Node{Node(i), Node(i)}))
		}
	}
	const scribble = 1 << 30
	for _, phi := range kept {
		grown := append(phi, scribble)
		grown[0] = scribble
	}
	for i, phi := range kept {
		if phi[0] == scribble || !slices.Equal(phi, slices.Repeat([]Node{phi[0]}, len(phi))) {
			t.Fatalf("slice %d = %v: written through another slice", i, phi)
		}
	}
}

// TestSlabAllocations pins the point of a Slab: one allocation per
// slabInstances slices of a sample's width, and a width past any sample's
// costs only itself.
func TestSlabAllocations(t *testing.T) {
	const width = 3
	phi := []Node{1, 2, 3}
	allocs := testing.AllocsPerRun(5, func() {
		var s Slab
		for range 4 * slabInstances {
			s.Copy(phi)
		}
	})
	if allocs != 4 {
		t.Errorf("%d slices of width %d took %v allocations, want 4", 4*slabInstances, width, allocs)
	}
	var s Slab
	if got := s.Take(0); len(got) != 0 {
		t.Errorf("Take(0) = %v", got)
	}
	if got := s.Take(1 << 20); len(got) != 1<<20 || len(s.free) != 0 {
		t.Errorf("Take(1<<20): len %d, %d nodes left in its chunk, want %d and 0", len(got), len(s.free), 1<<20)
	}
}
