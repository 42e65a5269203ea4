// Package failcover is the golden fixture for the failcover analyzer:
// fallible I/O reachable without passing a failpoint evaluation. It
// imports the real failpoint registry so guard detection matches the
// production tree exactly.
package failcover

import (
	"os"

	"subgraphmr/internal/failpoint"
)

// Spill is an exported entry point whose I/O never passes a failpoint —
// the canonical coverage hole.
func Spill(path string) error {
	f, err := os.Create(path) // want "fallible operation os.Create in Spill is reachable without passing a failpoint site"
	if err != nil {
		return err
	}
	return f.Close()
}

// SpillGuarded evaluates a site before its I/O: the function is a guard,
// so its body — and everything only it reaches — is covered.
func SpillGuarded(path string) error {
	if err := failpoint.Eval(failpoint.SpillCreate); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return writeRun(f)
}

// writeRun is reachable only through the guard above: covered, even
// though it performs fallible I/O itself.
func writeRun(f *os.File) error {
	if _, err := f.Write([]byte("run")); err != nil {
		return err
	}
	return f.Close()
}

// runs is a generic type whose methods call one another: the call graph
// must see through the instantiated method to its declaration, or remove
// would count as an uncalled entry point.
type runs[K comparable] struct{ paths map[K]string }

func (r *runs[K]) drop(k K) error {
	if err := failpoint.Eval(failpoint.SpillMerge); err != nil {
		return err
	}
	return r.remove(k)
}

func (r *runs[K]) remove(k K) error { return os.Remove(r.paths[k]) }

// SpillComputed evaluates a non-constant site name: the chaos matrix and
// the dead-site check only see named sites, so this is flagged even
// though the function technically guards.
func SpillComputed(which string) error {
	return failpoint.Eval("mr.spill." + which) // want "site must be a constant"
}

// SpillAudited documents why its unguarded I/O is sound; the finding is
// suppressed and the directive counts as used (not stale).
func SpillAudited(path string) {
	//lint:allow failcover fixture: best-effort removal whose error is discarded
	os.Remove(path)
}
