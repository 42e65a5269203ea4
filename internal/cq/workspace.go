package cq

import (
	"runtime"
	"sync"

	"subgraphmr/internal/graph"
)

// Workspace is what one reduce worker evaluates with: the fragment its
// groups are laid out in (which also holds the blocks the worker prepares),
// the kernel's scratch and a share job's ownership mask. Each grows to the
// largest group its worker has seen. A job takes one per reduce worker with
// TakeWorkspace and gives it back with PutWorkspace once its workers are
// joined, so the next job starts on storage that is already grown instead
// of growing its own from nothing.
type Workspace struct {
	Frag    graph.Fragment
	Scratch Scratch
	Mask    []uint16
}

// maxFreeWorkspaces bounds the free list. A workspace is sized for the
// largest task its worker ran, so the list keeps about what the reduce
// workers of four jobs at the default partitioning hold at once — the bound
// package mapreduce puts on its gather buffers.
var maxFreeWorkspaces = 4 * runtime.GOMAXPROCS(0)

// workspaces is the process-wide free list: a mutex-guarded stack taken
// from once per reduce worker and job. Unlike a sync.Pool it does not lose
// what it holds to a collection.
var workspaces struct {
	mu   sync.Mutex
	free []Workspace
}

// TakeWorkspace returns a workspace from the free list, or an empty one
// when the list is empty. The caller owns it until PutWorkspace.
func TakeWorkspace() Workspace {
	workspaces.mu.Lock()
	defer workspaces.mu.Unlock()
	n := len(workspaces.free)
	if n == 0 {
		return Workspace{}
	}
	ws := workspaces.free[n-1]
	workspaces.free[n-1] = Workspace{}
	workspaces.free = workspaces.free[:n-1]
	return ws
}

// PutWorkspace empties ws, keeping its storage, and returns it to the free
// list, or drops it when the list is full. ws must not be used again: the
// list now owns its storage.
func PutWorkspace(ws *Workspace) {
	ws.Frag.Reset()
	ws.Scratch.Stop, ws.Scratch.Own = nil, Ownership{}
	workspaces.mu.Lock()
	if len(workspaces.free) < maxFreeWorkspaces {
		workspaces.free = append(workspaces.free, *ws)
	}
	workspaces.mu.Unlock()
	*ws = Workspace{}
}
