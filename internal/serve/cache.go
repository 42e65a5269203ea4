package serve

import (
	"container/list"
	"sync"

	"subgraphmr"
)

// PlanCache is the prepared-query cache: QueryKey → *QueryPlan, LRU-bounded.
// A hit skips planning entirely — for p ≥ 6 samples the Sym(p)/Aut(S)
// enumeration and CQ compilation dominate query setup, and under
// WithAdaptive a hit also skips the planner's load probes. Cached plans
// are handed to concurrent executions as-is: *QueryPlan is documented
// safe for concurrent Run/Stream/Instances, which is exactly what makes
// this cache sound.
//
// Concurrent misses on the same key are coalesced: one caller plans, the
// rest wait for its result, so a thundering herd of an expensive pattern
// plans once (counted as one miss and n-1 hits — the hit rate measures
// planning work avoided).
type PlanCache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*planCall

	hits, misses int64
}

type cacheEntry struct {
	key  string
	plan *subgraphmr.QueryPlan
}

type planCall struct {
	done chan struct{}
	plan *subgraphmr.QueryPlan
	err  error
}

// NewPlanCache returns a cache bounded to max plans (min 1).
func NewPlanCache(max int) *PlanCache {
	if max < 1 {
		max = 1
	}
	return &PlanCache{
		max:      max,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*planCall),
	}
}

// Get returns the cached plan for key, or builds, caches and returns it.
// The second result reports whether planning was skipped (a cache hit or
// a coalesced concurrent miss). Build errors are returned to every waiter
// and never cached.
func (c *PlanCache) Get(key string, build func() (*subgraphmr.QueryPlan, error)) (*subgraphmr.QueryPlan, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		plan := el.Value.(*cacheEntry).plan
		c.mu.Unlock()
		return plan, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-call.done
		return call.plan, true, call.err
	}
	call := &planCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.misses++
	c.mu.Unlock()

	call.plan, call.err = build()
	close(call.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		el := c.ll.PushFront(&cacheEntry{key: key, plan: call.plan})
		c.entries[key] = el
		for c.ll.Len() > c.max {
			old := c.ll.Back()
			c.ll.Remove(old)
			delete(c.entries, old.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	return call.plan, false, call.err
}

// Len reports the number of cached plans (a gauge).
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits reports cumulative cache hits (including coalesced misses).
func (c *PlanCache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses reports cumulative cache misses (actual planning runs).
func (c *PlanCache) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// HitRate reports hits / (hits + misses), 0 before any lookup.
func (c *PlanCache) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
