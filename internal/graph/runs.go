package graph

import "slices"

// Run is a list of distinct node ids, ascending, whose Fragment keys share
// one major part: the high word of the key — the bucket under NodeHash.Key,
// 0 under NaturalKey. Ordered by (Major, id), runs of different majors are
// ordered as wholes.
type Run struct {
	Major uint32
	IDs   []Node
}

// BlockRuns is a block job's blocks laid out once each. A share-hashed
// job stores every edge once, in the block its endpoint buckets name, and
// the reduce tasks that read a block — about comm_per_edge of them — all
// need its endpoints ranked in the job's node order. Fragment.Prepare ranks
// them once per block: the block's distinct endpoints in key order, as one
// run per major (a (bucket, id)-ordered pair block has one run per bucket
// side, an id-ordered block one run). Fragment.Merge then builds a task's
// fragment by merging the runs of its blocks instead of discovering and
// sorting the task's nodes again.
//
// Different blocks are prepared concurrently by the job's reduce workers,
// each into the storage of its own Fragment; a block's runs are written
// once and read by every worker after that, which the caller orders
// (mapreduce.BlockJob runs a block's Prepare before any task that reads
// it). What a BlockRuns holds belongs to one run of one job.
type BlockRuns struct {
	key  func(Node) uint64
	runs [][]Run // block → its runs, ascending in Major; nil until prepared
}

// NewBlockRuns returns the table of a job with the given number of blocks
// whose node order is key (as for Fragment.Build).
func NewBlockRuns(blocks int, key func(Node) uint64) BlockRuns {
	return BlockRuns{key: key, runs: make([][]Run, blocks)}
}

// minChunk is the smallest chunk of prepared ids a Fragment starts; chunks
// double from there, so a worker makes O(log) of them per job, and its
// first task touches little fresh memory.
const minChunk = 256

// Prepare lays block out once, into br, in storage of f's — the fragment of
// the reduce worker preparing it, which it leaves empty: the distinct
// endpoints of the block's edges, self-loops ignored, ascending in br's key
// and cut into one run per major.
func (f *Fragment) Prepare(br *BlockRuns, block int, edges []Edge) {
	if cap(f.ids)-len(f.ids) < 2*len(edges) {
		f.ids = make([]Node, 0, max(2*len(edges), 2*cap(f.ids), minChunk))
	}
	f.Keys = fit(f.Keys, 2*len(edges))
	runs := f.prepare(br.key, edges)
	if cap(f.stored)-len(f.stored) < len(runs) {
		f.stored = make([]Run, 0, max(len(runs), 2*cap(f.stored), minChunk/32))
	}
	at := len(f.stored)
	f.stored = append(f.stored, runs...)
	br.runs[block] = f.stored[at:len(f.stored):len(f.stored)]
}

// prepare appends the block's distinct endpoints to f.ids, which has room
// for all of them, and returns its runs; f.Keys has room for the keys of
// every endpoint. The edges of a block arrive in the order the job's input
// had them; when that is Graph.Edges order the U sides are already
// ascending in id, so under a key that grows with the id only the V sides
// are sorted and the two halves merged.
//
//lint:hotpath
func (f *Fragment) prepare(key func(Node) uint64, edges []Edge) []Run {
	keys := f.Keys[:0]
	sorted, last := true, Node(0)
	for _, e := range edges {
		if e.U == e.V || len(keys) > 0 && e.U == last {
			continue // a U repeated by the next edge is keyed once
		}
		k := key(e.U)
		if n := len(keys); n > 0 && k < keys[n-1] {
			sorted = false
		}
		keys, last = append(keys, k), e.U
	}
	nu := len(keys)
	for _, e := range edges {
		if e.U != e.V {
			keys = append(keys, key(e.V))
		}
	}
	if !sorted {
		nu = 0
	}
	slices.Sort(keys[nu:])
	f.Keys, f.Nbr = keys[:0], f.Nbr[:0]

	// Merge the two ascending halves, dropping duplicates, into runs.
	ids, runs := f.ids, f.runs[:0]
	a, b := keys[:nu], keys[nu:]
	start, prev := len(ids), ^uint64(0)
	for len(a) > 0 || len(b) > 0 {
		var k uint64
		if len(b) == 0 || len(a) > 0 && a[0] <= b[0] {
			k, a = a[0], a[1:]
		} else {
			k, b = b[0], b[1:]
		}
		if k == prev {
			continue
		}
		if len(ids) > start && k>>32 != prev>>32 {
			runs = append(runs, Run{Major: uint32(prev >> 32), IDs: ids[start:len(ids):len(ids)]})
			start = len(ids)
		}
		ids, prev = append(ids, Node(uint32(k))), k
	}
	if len(ids) > start {
		runs = append(runs, Run{Major: uint32(prev >> 32), IDs: ids[start:len(ids):len(ids)]})
	}
	f.ids, f.runs = ids, runs
	return runs
}
