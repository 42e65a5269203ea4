// Package stale is the golden fixture for directive hygiene: a
// well-formed //lint:allow that suppresses nothing is itself a diagnostic
// — the code it excused was fixed or deleted, and a stale audit note is
// worse than none.
package stale

import "context"

// root carries a live directive: it suppresses a real ctxhygiene finding,
// so it is used, not stale.
func root() context.Context {
	//lint:allow ctxhygiene fixture: process-lifetime root on purpose; this directive is live
	return context.Background()
}

// threaded is the contract done right — and the directive below it
// excuses nothing, which is exactly what the stale check reports.
func threaded(ctx context.Context) context.Context {
	//lint:allow ctxhygiene fixture: the excused call was fixed; the directive outlived it
	// want-1 "stale //lint:allow ctxhygiene: it suppresses no diagnostic"
	return ctx
}
