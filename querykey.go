package subgraphmr

import (
	"fmt"
	"strings"
)

// QueryKey returns a deterministic string identifying the
// execution-relevant configuration of Plan(g, s, opts...), for use as a
// prepared-plan cache key (internal/serve keys its plan cache with it).
// Two calls return the same key exactly when planning and executing them
// produces the same plan shape and the same instance set/metrics:
//
//   - graphID must uniquely identify the data graph's *content* — the
//     caller's contract. A resident service that loads each graph once
//     under a name satisfies it by construction; hashing the edge list
//     works when it doesn't.
//   - The sample contributes its normalized form (p plus the sorted,
//     u<v edge list). Variable names are excluded: they label output
//     columns but change neither the plan nor the instances.
//   - Every planOpts field — nested struct fields included, down to each
//     core.Options and engine knob — is either encoded into the key or
//     explicitly exempted in queryKeyExemptFields with the reason; the
//     reflection test TestQueryKeyCoversPlanOpts fails the build of any
//     future option that is neither, so new options cannot silently
//     alias cache entries.
func QueryKey(graphID string, s *Sample, opts ...Option) string {
	o := defaultPlanOpts()
	for _, fn := range opts {
		fn(&o)
	}
	// The key holds the k Plan resolves, so k<=0 shares an entry with the
	// same k given explicitly, and plans whose chosen k differs do not.
	o.resolveReducers()
	c := o.core
	var sb strings.Builder
	sb.Grow(160)
	fmt.Fprintf(&sb, "g=%s|s=%s|", graphID, sampleKeyString(s))
	// Each planOpts leaf field below is one key segment; the reflection
	// test holds this list and the exempt list to the full field set.
	fmt.Fprintf(&sb, "strategy=%d|k=%d|b=%d|countonly=%t|seed=%d",
		int(o.strategy), c.TargetReducers, c.Buckets, o.countOnly, c.Seed)
	fmt.Fprintf(&sb, "|par=%d|parts=%d|mem=%d|spill=%s",
		c.Engine.Parallelism, c.Engine.Partitions, c.Engine.MemoryBudget, c.Engine.SpillDir)
	fmt.Fprintf(&sb, "|adaptive=%t|skew=%g", c.AdaptiveReplan, c.SkewThreshold)
	fmt.Fprintf(&sb, "|workers=%s|spawn=%d|wtimeout=%d|fault=%d:%d:%d",
		strings.Join(o.workers, ","), o.spawnWorkers, int64(o.workerTimeout),
		int(o.fault.Mode), o.fault.Worker, o.fault.AfterInstances)
	return sb.String()
}

// queryKeyExemptFields lists the planOpts leaf fields (dotted paths through
// nested structs) QueryKey deliberately leaves out of the key, each with
// the reason. The reflection test requires every leaf to appear either
// here or in queryKeyIncludedFields — adding an option forces an explicit
// caching decision.
var queryKeyExemptFields = map[string]string{
	"core.Engine.Dist": "worker-side ownership filter: set only by the distributed executor on reconstructed worker plans, never by a caller-facing Option",
}

// queryKeyIncludedFields names the planOpts leaf fields QueryKey encodes,
// in key order. Kept next to QueryKey so the two are updated together;
// the reflection test cross-checks it against the struct.
var queryKeyIncludedFields = []string{
	"strategy", "core.TargetReducers", "core.Buckets", "countOnly", "core.Seed",
	"core.Engine.Parallelism", "core.Engine.Partitions", "core.Engine.MemoryBudget", "core.Engine.SpillDir",
	"core.AdaptiveReplan", "core.SkewThreshold",
	"workers", "spawnWorkers", "workerTimeout", "fault.Mode", "fault.Worker", "fault.AfterInstances",
}

// sampleKeyString renders the sample's normalized form: p plus the sorted
// canonical (u<v) edge list sample.New maintains.
func sampleKeyString(s *Sample) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "p%d", s.P())
	for _, e := range s.Edges() {
		fmt.Fprintf(&sb, ",%d-%d", e[0], e[1])
	}
	return sb.String()
}
