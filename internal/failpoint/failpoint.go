// Package failpoint is a named-site fault-injection registry: code that
// touches the outside world (spill I/O, sockets, process spawning, cache
// fills) declares a site, and tests, the SGMR_FAILPOINTS environment
// variable, or the sgmr -failpoints flag arm the site with a failure mode.
// The chaos difftests drive every site through every mode and assert the
// engine's failure contract — a typed error or a bit-identical result,
// never a panic, leak, or silent partial output.
//
// The registry is zero-overhead when disabled: Eval and Corrupt check one
// atomic counter and return immediately while no site is armed, so
// production builds pay a single atomic load per site visit and no
// allocation.
//
// Spec grammar (for Enable, SGMR_FAILPOINTS and -failpoints):
//
//	site=mode[*count][;site=mode[*count]...]
//
// where mode is one of
//
//	error        return ErrInjected from Eval
//	enospc       return ErrInjected wrapping syscall.ENOSPC ("disk full")
//	panic        panic at the site (exercises the engine's recovery)
//	delay:DUR    sleep DUR (e.g. delay:50ms), then continue normally
//	corrupt      Corrupt flips a payload byte; Eval is a no-op
//
// and the optional *count arms the site for that many firings (default:
// unlimited). `distrib.dial=error*2` fails the first two dial attempts and
// lets the third succeed — exactly the shape retry/backoff tests need.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The site catalog. Enable rejects names outside it, so a typo in a test
// or an ops spec fails loudly instead of silently injecting nothing.
const (
	// SpillCreate fires at the start of every spill run
	// (mapreduce.spiller.writeRun, for spill and compact alike), once the
	// reduce worker's one spill file exists: its first run creates it.
	SpillCreate = "mr.spill.create"
	// SpillWrite fires where a spill run's buffered bytes are flushed to
	// disk — the classic mid-shuffle ENOSPC.
	SpillWrite = "mr.spill.write"
	// SpillMerge fires where the k-way merge starts reading a worker's
	// spill runs back (mapreduce.spiller.mergeReduce).
	SpillMerge = "mr.spill.merge"
	// MapWorker fires at the start of every map worker goroutine, and once
	// at the start of a block job's map phase (mapreduce.BlockJob).
	MapWorker = "mr.map"
	// ReduceWorker fires at the start of every reduce worker goroutine.
	ReduceWorker = "mr.reduce"
	// DistDial fires per coordinator dial attempt (before the TCP dial),
	// so error*N proves the bounded retry-with-backoff ladder.
	DistDial = "distrib.dial"
	// DistFrameWrite fires per wire-protocol frame write; corrupt mode
	// flips a payload byte so the peer sees a decode failure.
	DistFrameWrite = "distrib.frame.write"
	// DistFrameRead fires per wire-protocol frame read.
	DistFrameRead = "distrib.frame.read"
	// ServeCacheFill fires inside the query service's plan-cache fill.
	ServeCacheFill = "serve.cache.fill"
	// ServeAdmission fires before the query service's admission acquire.
	ServeAdmission = "serve.admission"
)

// knownSites is the catalog Enable validates against.
var knownSites = map[string]bool{
	SpillCreate:    true,
	SpillWrite:     true,
	SpillMerge:     true,
	MapWorker:      true,
	ReduceWorker:   true,
	DistDial:       true,
	DistFrameWrite: true,
	DistFrameRead:  true,
	ServeCacheFill: true,
	ServeAdmission: true,
}

// Sites returns the sorted site catalog (for docs and -h output).
func Sites() []string {
	out := make([]string, 0, len(knownSites))
	for s := range knownSites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ErrInjected is the root of every failure Eval injects; errors.Is reports
// it through all the engine's wrapping, so tests can tell an injected
// failure from an organic one.
var ErrInjected = errors.New("failpoint: injected failure")

type mode int

const (
	modeError mode = iota
	modeENOSPC
	modePanic
	modeDelay
	modeCorrupt
)

// point is one armed site.
type point struct {
	mode  mode
	delay time.Duration
	// remaining is the firing budget: negative means unlimited; zero means
	// spent (the site stays registered but inert).
	remaining atomic.Int64
}

// fire consumes one firing, reporting whether the site should act.
func (p *point) fire() bool {
	for {
		n := p.remaining.Load()
		if n < 0 {
			return true
		}
		if n == 0 {
			return false
		}
		if p.remaining.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

var (
	mu     sync.RWMutex
	points = map[string]*point{}
	// armed gates the fast path: while zero, Eval and Corrupt return
	// without taking the lock.
	armed atomic.Int32
)

// Enable arms site with spec (see the package doc for the grammar). An
// unknown site or malformed spec is an error and arms nothing.
func Enable(site, spec string) error {
	if !knownSites[site] {
		return fmt.Errorf("failpoint: unknown site %q (known: %s)", site, strings.Join(Sites(), ", "))
	}
	p, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("failpoint: site %s: %w", site, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := points[site]; !dup {
		armed.Add(1)
	}
	points[site] = p
	return nil
}

// Disable disarms site (a no-op when it was not armed).
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[site]; ok {
		delete(points, site)
		armed.Add(-1)
	}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for site := range points {
		delete(points, site)
		armed.Add(-1)
	}
}

// Active returns the armed sites as sorted "site=mode" strings.
func Active() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(points))
	for site, p := range points {
		out = append(out, site+"="+p.modeString())
	}
	sort.Strings(out)
	return out
}

func (p *point) modeString() string {
	switch p.mode {
	case modeError:
		return "error"
	case modeENOSPC:
		return "enospc"
	case modePanic:
		return "panic"
	case modeDelay:
		return "delay:" + p.delay.String()
	case modeCorrupt:
		return "corrupt"
	}
	return "?"
}

// EnableSpecs arms every entry of a "site=spec[;site=spec]" list (',' is
// accepted as a separator too). On error, earlier entries stay armed.
func EnableSpecs(specs string) error {
	for _, entry := range strings.FieldsFunc(specs, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("failpoint: malformed entry %q (want site=mode)", entry)
		}
		if err := Enable(strings.TrimSpace(site), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// EnvVar is the environment variable holding a spec list that init arms at
// process start — this is how spawned worker processes inherit the
// coordinator's failpoints, and how ops can inject without a rebuild.
const EnvVar = "SGMR_FAILPOINTS"

func init() {
	if specs := os.Getenv(EnvVar); specs != "" {
		if err := EnableSpecs(specs); err != nil {
			// A malformed injection config is a test/ops mistake; failing
			// fast at startup beats silently injecting nothing.
			panic(fmt.Sprintf("failpoint: parsing %s: %v", EnvVar, err))
		}
	}
}

// parseSpec parses "mode[*count]" with mode "error", "enospc", "panic",
// "corrupt" or "delay:DUR".
func parseSpec(spec string) (*point, error) {
	modeStr := spec
	count := int64(-1)
	if i := strings.LastIndexByte(spec, '*'); i >= 0 {
		n, err := strconv.ParseInt(spec[i+1:], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad firing count in %q (want mode*N, N >= 1)", spec)
		}
		modeStr, count = spec[:i], n
	}
	p := &point{}
	p.remaining.Store(count)
	switch {
	case modeStr == "error":
		p.mode = modeError
	case modeStr == "enospc":
		p.mode = modeENOSPC
	case modeStr == "panic":
		p.mode = modePanic
	case modeStr == "corrupt":
		p.mode = modeCorrupt
	case strings.HasPrefix(modeStr, "delay:"):
		d, err := time.ParseDuration(strings.TrimPrefix(modeStr, "delay:"))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay in %q (want delay:DUR)", spec)
		}
		p.mode, p.delay = modeDelay, d
	default:
		return nil, fmt.Errorf("unknown mode %q (want error, enospc, panic, corrupt or delay:DUR)", modeStr)
	}
	return p, nil
}

// Eval visits site: it returns nil while the site is disarmed (the
// fast path — one atomic load), injects the armed failure otherwise.
// error/enospc modes return an error wrapping ErrInjected, panic mode
// panics, delay mode sleeps and returns nil, corrupt mode returns nil
// (byte corruption happens in Corrupt).
func Eval(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	return evalSlow(site)
}

func evalSlow(site string) error {
	mu.RLock()
	p := points[site]
	mu.RUnlock()
	// corrupt mode acts in Corrupt, not Eval — it must not consume the
	// firing budget here.
	if p == nil || p.mode == modeCorrupt || !p.fire() {
		return nil
	}
	switch p.mode {
	case modeError:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	case modeENOSPC:
		return fmt.Errorf("%w at %s: %w", ErrInjected, site, syscall.ENOSPC)
	case modePanic:
		panic(fmt.Sprintf("failpoint: injected panic at %s", site))
	case modeDelay:
		time.Sleep(p.delay)
	}
	return nil
}

// Corrupt visits site in corrupt mode: it returns payload untouched while
// the site is disarmed or armed with any other mode, and otherwise returns
// a copy with one byte flipped (an empty payload gains one garbage byte).
// The input slice is never mutated — callers may be writing a shared
// buffer.
func Corrupt(site string, payload []byte) []byte {
	if armed.Load() == 0 {
		return payload
	}
	mu.RLock()
	p := points[site]
	mu.RUnlock()
	if p == nil || p.mode != modeCorrupt || !p.fire() {
		return payload
	}
	if len(payload) == 0 {
		return []byte{0xFF}
	}
	mangled := append([]byte(nil), payload...)
	mangled[len(mangled)/2] ^= 0xFF
	return mangled
}
