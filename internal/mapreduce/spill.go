package mapreduce

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"unsafe"

	"subgraphmr/internal/failpoint"
)

// The external shuffle. When Config.MemoryBudget is set, a reduce worker
// keeps no hash table: arriving pairs are appended to one flat buffer and
// charged their exact footprint (see spiller.limit). Every key encodes to
// one 8-byte word (see Codec), so crossing the worker's share sorts the
// buffer once with an in-place radix pass over the words and appends it as
// one run to the worker's spill file, each key once with its values behind
// it. The file is created at the worker's first run; a run is a span of
// it. After the map phase the worker merges its runs through a loser tree —
// intermediate passes keep the fan-in at most mergeFanIn, appending each
// folded run to the same file — and streams each key's concatenated values
// into the reducer. A worker that never crossed its share sorts the buffer
// and reduces from it through the same group walk that writes a run, so
// the budgeted path has one grouping routine.

// mergeFanIn caps how many runs one merge pass reads at once. The pass
// splits the worker's share between their read buffers, each at least
// minRunBuf, so the cap bounds what a merge holds by the share or
// mergeFanIn × minRunBuf, however many runs a tiny budget produces.
const mergeFanIn = 32

// Run I/O buffers are part of the worker's share: the one write buffer is
// a sixteenth of it and a merge's read buffers split all of it, each clamped
// to these bounds (so shares under minRunBuf × runs are exceeded by the
// floor, and nothing is gained past maxRunBuf). The pair buffer always
// keeps at least half the share, or a share near the floor would spill
// every pair on its own.
const (
	minRunBuf = 4 << 10
	maxRunBuf = 64 << 10
)

// runEntry is the sort record of one buffered pair.
type runEntry struct {
	key uint64 // the encoded key, read as a big-endian word
	idx uint32 // arrival index: the pair is buf[idx]
}

// span is one run: where it starts in the worker's spill file, and its
// length.
type span struct{ off, n int64 }

// spiller owns one budgeted reduce worker's shuffle state: the flat pair
// buffer, the sort scratch, the spill file and its runs, and the spill
// accounting. Every scratch slice lives here and is reused, so once the
// file exists a warmed spill allocates nothing.
type spiller[K comparable, V any] struct {
	codec Codec[K, V]
	dir   string
	f     *os.File // the worker's spill file, created at its first run
	end   int64    // the file's length: where the next run starts
	runs  []span   // runs not yet folded, in creation order

	// Budget accounting. A buffered pair costs fixed bytes: its slot in buf
	// and its runEntry. The buffer therefore holds at most limit pairs: the
	// most that fit the room (the share less the write buffer, at least
	// half of it) plus the crossing one, so a run holds at least one pair;
	// reaching it spills.
	share int64
	limit int
	fixed int64 // the bytes one buffered pair costs
	// keep is the part of the share a worker that spilled holds through its
	// reduce phase: its merge's read buffers split it. It is the whole
	// share unless the reduce phase overlaps another round's shuffle, as in
	// a pipe's first round.
	keep int64

	buf  []pair[K, V]
	ents []runEntry // sort scratch, one per buffered pair
	kb   []byte     // one encoded key
	val  []byte     // one encoded value
	vs   []V        // one group's values, handed to the reducer
	raw  []byte     // one group's raw values while compacting
	ends []int      // where each of them ends in raw
	w    runWriter
	m    merger // reused by every merge pass

	// Spill metrics, folded into the job Metrics by the worker.
	pairs, bytes, written int64
}

func newSpiller[K comparable, V any](codec Codec[K, V], dir string, share int64) *spiller[K, V] {
	s := &spiller[K, V]{codec: codec, dir: dir, fixed: int64(unsafe.Sizeof(pair[K, V]{}) + unsafe.Sizeof(runEntry{}))}
	s.size(share)
	return s
}

// size sets the worker's share, before its first pair, and with it keep
// and the buffer's limit.
func (s *spiller[K, V]) size(share int64) {
	s.share, s.keep = share, share
	room := share - min(int64(s.writeBufSize()), share/2)
	// runEntry.idx is 32 bits wide.
	s.limit = int(min(room/s.fixed+1, math.MaxUint32))
}

// writeBufSize is the size of the worker's one run write buffer.
func (s *spiller[K, V]) writeBufSize() int { return runBufSize(s.share / 16) }

// runBufSize clamps a run I/O buffer size to [minRunBuf, maxRunBuf].
func runBufSize(n int64) int {
	return int(min(max(n, minRunBuf), maxRunBuf))
}

// cleanup closes and removes the spill file. Safe to call twice; the
// worker defers it so the file never outlives the job, even on errors.
func (s *spiller[K, V]) cleanup() {
	if s.f != nil {
		s.f.Close()
		os.Remove(s.f.Name()) // best-effort teardown: nothing to do about a failure
		s.f = nil
	}
	s.runs = nil
}

// add buffers a batch of arrived pairs, spilling a run each time the
// buffer fills.
func (s *spiller[K, V]) add(batch []pair[K, V]) error {
	for len(batch) > 0 {
		n := min(len(batch), s.limit-len(s.buf))
		if need := len(s.buf) + n; need > cap(s.buf) {
			// Doubling, but never past the most pairs the room can hold:
			// append's own growth would overshoot the share by up to 2×.
			c := min(max(2*cap(s.buf), need), s.limit)
			s.buf = append(make([]pair[K, V], 0, c), s.buf...)
		}
		s.buf = append(s.buf, batch[:n]...)
		batch = batch[n:]
		if len(s.buf) == s.limit {
			if err := s.spill(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortBuf encodes every buffered key once, as a word, and sorts the entries
// by key, arrival order within a key. A key that does not encode to 8 bytes
// is an error: jobCodec checks only the zero key.
func (s *spiller[K, V]) sortBuf() error {
	s.ents = slices.Grow(s.ents[:0], len(s.buf))
	or, and := uint64(0), ^uint64(0)
	for i := range s.buf {
		s.kb = s.codec.AppendKey(s.kb[:0], s.buf[i].key)
		if len(s.kb) != 8 {
			return fmt.Errorf("mapreduce: spill key encodes to %d bytes, want 8", len(s.kb))
		}
		k := binary.BigEndian.Uint64(s.kb)
		or, and = or|k, and&k
		s.ents = append(s.ents, runEntry{key: k, idx: uint32(i)})
	}
	radixSort(s.ents, or^and)
	return nil
}

// radixSmall is the bucket size radixSort finishes by insertion sort.
const radixSmall = 32

// radixSort orders entries by (key, idx). It is an MSD (American flag)
// radix sort, in place: each pass counts one bucket's entries by the
// highest key byte set in vary (the bits that differ somewhere in the
// buffer), permutes them into sub-buckets by cycle-swapping, and recurses
// into each sub-bucket with that byte cleared. Small buckets, and buckets
// whose keys are all equal, are finished by comparison.
//
//lint:hotpath
func radixSort(ents []runEntry, vary uint64) {
	for {
		if len(ents) <= radixSmall {
			insertionSort(ents)
			return
		}
		if vary == 0 {
			slices.SortFunc(ents, compareEntries)
			return
		}
		shift := uint(63-bits.LeadingZeros64(vary)) &^ 7
		vary &^= 0xff << shift
		var count [256]int
		for _, e := range ents {
			count[byte(e.key>>shift)]++
		}
		if count[byte(ents[0].key>>shift)] == len(ents) {
			continue // the byte is the same across this bucket
		}
		var next, end [256]int
		for d, off := 0, 0; d < 256; d++ {
			next[d] = off
			off += count[d]
			end[d] = off
		}
		for d := range 256 {
			for next[d] < end[d] {
				e := ents[next[d]]
				for t := byte(e.key >> shift); int(t) != d; t = byte(e.key >> shift) {
					ents[next[t]], e = e, ents[next[t]]
					next[t]++
				}
				ents[next[d]] = e
				next[d]++
			}
		}
		lo := 0
		for _, hi := range end {
			if hi-lo > 1 {
				radixSort(ents[lo:hi], vary)
			}
			lo = hi
		}
		return
	}
}

// insertionSort finishes a small radix bucket in compareEntries' order.
//
//lint:hotpath
func insertionSort(ents []runEntry) {
	for i := 1; i < len(ents); i++ {
		e, j := ents[i], i
		for ; j > 0 && compareEntries(e, ents[j-1]) < 0; j-- {
			ents[j] = ents[j-1]
		}
		ents[j] = e
	}
}

// compareEntries is the sort order: by key, arrival order within a key
// (which keeps a group's value order deterministic given the same
// arrivals).
//
//lint:hotpath
func compareEntries(a, b runEntry) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// walk calls group once per distinct key of the sorted entries, in key
// order, with the key's entries in arrival order; a false return stops it.
// It returns the number of groups visited and the largest of them.
//
//lint:hotpath
func (s *spiller[K, V]) walk(group func(g []runEntry) bool) (distinct, maxIn int64) {
	for lo := 0; lo < len(s.ents); {
		hi := lo + 1
		for hi < len(s.ents) && s.ents[hi].key == s.ents[lo].key {
			hi++
		}
		distinct++
		maxIn = max(maxIn, int64(hi-lo))
		if !group(s.ents[lo:hi]) {
			break
		}
		lo = hi
	}
	return distinct, maxIn
}

// spill sorts the buffer and appends it as one run, then empties it.
// Record layout, repeated to the end of the run, with every length a
// uvarint:
//
//	key (8 bytes, big-endian) | nvals | nvals × (vlen | value bytes)
//
// Keys appear once per run, in ascending order.
func (s *spiller[K, V]) spill() error {
	if err := s.sortBuf(); err != nil {
		return err
	}
	r, err := s.writeRun(func() error {
		s.walk(func(g []runEntry) bool {
			s.w.writeKey(g[0].key)
			s.w.writeUvarint(uint64(len(g)))
			for _, e := range g {
				s.val = s.codec.AppendValue(s.val[:0], s.buf[e.idx].val)
				s.w.writeBytes(s.val)
			}
			return true
		})
		if err := failpoint.Eval(failpoint.SpillWrite); err != nil {
			return fmt.Errorf("mapreduce: writing spill file: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.runs = append(s.runs, r)
	s.pairs += int64(len(s.buf))
	clear(s.buf) // the emptied buffer must not pin the run's keys and values
	s.buf = s.buf[:0]
	return nil
}

// writeRun appends one run to the spill file, creating the file at the
// worker's first run, and returns the run's span; fill writes the run's
// records through s.w. On an error or a panic mid-encode (a failing custom
// codec, an injected fault) the partial run stays in the file, which the
// worker's cleanup removes.
func (s *spiller[K, V]) writeRun(fill func() error) (span, error) {
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, "sgmr-spill-*.run")
		if err != nil {
			return span{}, fmt.Errorf("mapreduce: creating spill file: %w", err)
		}
		s.f, s.w.f = f, f
	}
	if err := failpoint.Eval(failpoint.SpillCreate); err != nil {
		return span{}, fmt.Errorf("mapreduce: creating spill file: %w", err)
	}
	if s.w.buf == nil {
		s.w.buf = make([]byte, 0, s.writeBufSize())
	}
	s.w.buf, s.w.n, s.w.err = s.w.buf[:0], 0, nil
	if err := fill(); err != nil {
		return span{}, err
	}
	s.w.flush()
	if s.w.err != nil {
		return span{}, fmt.Errorf("mapreduce: writing spill file: %w", s.w.err)
	}
	r := span{off: s.end, n: s.w.n}
	s.end += r.n
	s.bytes += r.n
	s.written++
	return r, nil
}

// settle ends the buffering phase and returns the bytes the worker holds
// through its reduce phase. A worker that never spilled keeps its buffer to
// reduce from (it never crossed the share): the buffer, and the sort
// scratch the reduce phase grows to its length. Otherwise the rest of the
// buffer is spilled, and the buffer and the write buffer are dropped: the
// merge's read buffers take over keep.
func (s *spiller[K, V]) settle() (held int64, err error) {
	if len(s.runs) == 0 {
		return int64(cap(s.buf))*int64(unsafe.Sizeof(pair[K, V]{})) + int64(len(s.buf))*int64(unsafe.Sizeof(runEntry{})), nil
	}
	if len(s.buf) > 0 {
		if err := s.spill(); err != nil {
			return 0, err
		}
	}
	s.buf, s.ents, s.w.buf = nil, nil, nil
	return s.keep, nil
}

// reduce, after settle, streams every key's values into fn and returns the
// number of distinct keys and the largest group, matching what the
// in-memory path would have reported. A false return from fn stops early
// (the group it declined is counted). A worker that kept its buffer
// reduces straight from it, sorted, with the original keys and values; one
// that spilled merges its runs, in ascending key order either way.
func (s *spiller[K, V]) reduce(fn func(k K, vs []V) bool) (distinct, maxIn int64, err error) {
	if len(s.runs) > 0 {
		return s.mergeReduce(fn)
	}
	if err := s.sortBuf(); err != nil {
		return 0, 0, err
	}
	distinct, maxIn = s.walk(func(g []runEntry) bool {
		s.vs = s.vs[:0]
		for _, e := range g {
			s.vs = append(s.vs, s.buf[e.idx].val)
		}
		return fn(s.buf[g[0].idx].key, s.vs)
	})
	return distinct, maxIn, nil
}

// mergeReduce merges every run and streams each key's decoded values into
// fn in ascending key order.
func (s *spiller[K, V]) mergeReduce(fn func(k K, vs []V) bool) (distinct, maxIn int64, err error) {
	if err := failpoint.Eval(failpoint.SpillMerge); err != nil {
		return 0, 0, fmt.Errorf("mapreduce: merging spill runs: %w", err)
	}
	// Intermediate passes: fold the oldest unfolded runs into one until the
	// final merge fits the fan-in cap — no more of them than that takes, so
	// one run over the cap rewrites two runs, not thirty-two. A folded run
	// takes the place of the runs it holds, so the list stays in creation
	// order and a key's values still reach fn in arrival order.
	for at := 0; len(s.runs) > mergeFanIn; at++ {
		if at >= len(s.runs)-1 {
			at = 0 // every run has been folded once: fold the folded ones
		}
		n := min(mergeFanIn, len(s.runs)-mergeFanIn+1, len(s.runs)-at)
		r, err := s.compact(s.runs[at : at+n])
		if err != nil {
			return 0, 0, err
		}
		s.runs[at] = r
		s.runs = slices.Delete(s.runs, at+1, at+n)
	}
	if err := s.m.reset(s.f, s.runs, s.keep); err != nil {
		return 0, 0, err
	}
	decode := s.decodeValue
	for {
		s.vs = s.vs[:0]
		k, ok, err := s.m.nextGroup(decode)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return distinct, maxIn, nil
		}
		s.kb = binary.BigEndian.AppendUint64(s.kb[:0], k)
		key, err := s.codec.DecodeKey(s.kb)
		if err != nil {
			return 0, 0, fmt.Errorf("mapreduce: decoding spilled key: %w", err)
		}
		distinct++
		maxIn = max(maxIn, int64(len(s.vs)))
		if !fn(key, s.vs) {
			return distinct, maxIn, nil
		}
	}
}

// decodeValue is mergeReduce's per-value callback: it decodes one raw value
// straight into the reducer's reused slice.
//
//lint:hotpath
func (s *spiller[K, V]) decodeValue(vb []byte) error {
	v, err := s.codec.DecodeValue(vb)
	if err != nil {
		return decodeValueErr(err)
	}
	s.vs = append(s.vs, v)
	return nil
}

func decodeValueErr(err error) error {
	return fmt.Errorf("mapreduce: decoding spilled value: %w", err)
}

// compact merges the given runs into one new run, appended to the spill
// file, and returns its span. No decoding happens: each group's raw values
// are gathered into raw (their count precedes them in the record) and
// re-emitted under the key once.
func (s *spiller[K, V]) compact(runs []span) (span, error) {
	if err := s.m.reset(s.f, runs, s.keep); err != nil {
		return span{}, err
	}
	gather := func(vb []byte) error {
		s.raw = append(s.raw, vb...)
		s.ends = append(s.ends, len(s.raw))
		return nil
	}
	return s.writeRun(func() error {
		for {
			s.raw, s.ends = s.raw[:0], s.ends[:0]
			k, ok, err := s.m.nextGroup(gather)
			if err != nil || !ok {
				return err
			}
			s.w.writeKey(k)
			s.w.writeUvarint(uint64(len(s.ends)))
			start := 0
			for _, end := range s.ends {
				s.w.writeBytes(s.raw[start:end])
				start = end
			}
		}
	})
}

// runWriter appends records to the spill file through one reused buffer,
// counting the run's bytes and deferring error checks to the end of the
// run (it remembers the first error). Record pieces are appended to the
// buffer, which goes to the file whenever the next piece would not fit, so
// encoding a record costs appends, not calls.
type runWriter struct {
	f   *os.File
	buf []byte // pending bytes; its capacity is the write buffer size
	n   int64
	err error
}

// flush writes the pending bytes to the file.
func (w *runWriter) flush() {
	if len(w.buf) > 0 && w.err == nil {
		_, w.err = w.f.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// room flushes the buffer unless n more bytes fit it, and reports whether
// they fit it at all.
func (w *runWriter) room(n int) bool {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
	return n <= cap(w.buf)
}

func (w *runWriter) writeUvarint(x uint64) {
	w.room(binary.MaxVarintLen64) // the buffer is at least minRunBuf long
	n := len(w.buf)
	w.buf = binary.AppendUvarint(w.buf, x)
	w.n += int64(len(w.buf) - n)
}

func (w *runWriter) writeKey(k uint64) {
	w.room(8)
	w.buf = binary.BigEndian.AppendUint64(w.buf, k)
	w.n += 8
}

func (w *runWriter) write(b []byte) {
	w.n += int64(len(b))
	if w.room(len(b)) {
		w.buf = append(w.buf, b...)
	} else if w.err == nil {
		_, w.err = w.f.Write(b) // larger than the buffer: straight to the file
	}
}

func (w *runWriter) writeBytes(b []byte) {
	w.writeUvarint(uint64(len(b)))
	w.write(b)
}

// runCursor reads one run record by record, through its window of the
// merger's read buffers, from its span of the spill file (ReadAt, so the
// file's own offset stays where the next run is appended). Every length it
// reads is checked against the bytes the span still holds before a buffer
// grows to it, so a torn or bit-flipped run is a read error, never an
// allocation larger than the run.
type runCursor struct {
	f        *os.File
	buf      []byte // read buffer: buf[r:w] is read but not yet consumed
	r, w     int
	off, end int64  // the next file offset to read, and the span's end
	head     uint64 // current record's key
	val      []byte // value buffer, reused: valid until the next value call
	nv       uint64 // values of the current record not yet read
	done     bool   // the run is exhausted
}

var errRunVarint = errors.New("length varint overflows 64 bits")

func readRunErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("mapreduce: reading spill run: %w", err)
}

// left is the number of the span's bytes not yet consumed.
func (c *runCursor) left() int64 { return c.end - c.off + int64(c.w-c.r) }

// refill moves the unconsumed bytes to the front of the buffer and reads
// as much of the rest of the span as fits behind them.
func (c *runCursor) refill() error {
	c.w = copy(c.buf, c.buf[c.r:c.w])
	c.r = 0
	n := int(min(int64(len(c.buf)-c.w), c.end-c.off))
	if n == 0 {
		return io.ErrUnexpectedEOF // the span is exhausted
	}
	got, err := c.f.ReadAt(c.buf[c.w:c.w+n], c.off)
	c.off += int64(got)
	c.w += got
	if got < n { // the file is shorter than its runs; err is never nil here
		return err
	}
	return nil
}

// ensure buffers at least n unconsumed bytes, n no more than the buffer
// holds.
func (c *runCursor) ensure(n int) error {
	for c.w-c.r < n {
		if err := c.refill(); err != nil {
			return err
		}
	}
	return nil
}

// length reads one uvarint that must not exceed the bytes left after it —
// true of a value length and, every value taking at least a byte, of a
// value count.
func (c *runCursor) length() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if err := c.ensure(1); err != nil {
			return 0, err
		}
		b := c.buf[c.r]
		c.r++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			x |= uint64(b) << shift
			if x > uint64(c.left()) {
				return 0, io.ErrUnexpectedEOF
			}
			return x, nil
		}
		x |= uint64(b&0x7f) << shift
	}
	return 0, errRunVarint
}

// fill reads the next n bytes of the span into buf, growing it if needed.
func (c *runCursor) fill(buf []byte, n uint64) ([]byte, error) {
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	for i := 0; i < len(buf); {
		if err := c.ensure(1); err != nil {
			return buf, err
		}
		k := copy(buf[i:], c.buf[c.r:c.w])
		c.r += k
		i += k
	}
	return buf, nil
}

// next loads the following record header, or marks the cursor done once
// its span is consumed.
func (c *runCursor) next() error {
	if c.left() == 0 {
		c.done = true
		return nil
	}
	err := c.ensure(8)
	if err == nil {
		c.head = binary.BigEndian.Uint64(c.buf[c.r:])
		c.r += 8
		c.nv, err = c.length()
	}
	if err != nil {
		return readRunErr(err)
	}
	return nil
}

// value reads the next raw value of the current record. A value whose
// one-byte length and bytes the read buffer already holds is returned in
// place, valid until the cursor reads again; any other is read into the
// cursor's reusable buffer.
//
//lint:hotpath
func (c *runCursor) value() ([]byte, error) {
	if b := c.buf[c.r:c.w]; len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) {
		n := int(b[0]) + 1
		c.r += n
		c.nv--
		return b[1:n], nil
	}
	vlen, err := c.length()
	if err == nil {
		c.val, err = c.fill(c.val, vlen)
	}
	if err != nil {
		return nil, readRunErr(err)
	}
	c.nv--
	return c.val, nil
}

// merger streams merged key groups out of a set of runs through a loser
// tree over their cursors: leaf i is the cursor of run i, each internal
// node holds the loser of the match played there, and tree[0] the overall
// winner. Advancing the winner replays only its leaf-to-root path, one
// comparison per level. A spiller keeps one merger for all its passes, so
// a pass allocates its cursors, tree and read buffers only when it needs
// more of them than every earlier pass did — never one per run.
type merger struct {
	all  []runCursor // in run creation order
	tree []int32     // tree[0] the winning cursor, tree[1:] each internal node's loser
	slab []byte      // the cursors' read buffers, one window each
}

// reset points the merger at the given runs of f for one merge pass,
// splitting share between their read buffers, and loads each run's first
// record.
func (m *merger) reset(f *os.File, runs []span, share int64) error {
	k := len(runs)
	size := runBufSize(share / int64(max(k, 1)))
	if cap(m.slab) < k*size {
		m.slab = make([]byte, k*size)
	}
	if cap(m.all) < k {
		m.all = make([]runCursor, k)
		m.tree = make([]int32, k)
	}
	m.all, m.tree = m.all[:k], m.tree[:k]
	for i, r := range runs {
		c := &m.all[i]
		*c = runCursor{f: f, buf: m.slab[i*size : (i+1)*size], off: r.off, end: r.off + r.n, val: c.val}
		if err := c.next(); err != nil {
			return err
		}
	}
	if k > 0 {
		m.tree[0] = m.play(1)
	}
	return nil
}

// play fills in the subtree under node, storing each match's loser, and
// returns its winner. Nodes 1..k-1 are internal, k..2k-1 the leaves of the
// k runs.
func (m *merger) play(node int) int32 {
	k := len(m.all)
	if node >= k {
		return int32(node - k)
	}
	w, l := m.play(2*node), m.play(2*node+1)
	if m.beats(l, w) {
		w, l = l, w
	}
	m.tree[node] = l
	return w
}

// replay plays leaf w, whose cursor has advanced, back up to the root.
//
//lint:hotpath
func (m *merger) replay(w int32) {
	for node := (int(w) + len(m.all)) / 2; node > 0; node /= 2 {
		if l := m.tree[node]; m.beats(l, w) {
			m.tree[node], w = w, l
		}
	}
	m.tree[0] = w
}

// beats reports whether cursor i's record comes before cursor j's: by key,
// then by run order (which keeps value order deterministic given the same
// runs). An exhausted cursor loses to every other.
//
//lint:hotpath
func (m *merger) beats(i, j int32) bool {
	a, b := &m.all[i], &m.all[j]
	switch {
	case a.done:
		return false
	case b.done:
		return true
	case a.head != b.head:
		return a.head < b.head
	}
	return i < j
}

// nextGroup hands each every raw value, across all runs, of the smallest
// remaining key and returns that key; ok is false once the merge is
// exhausted. A value is valid only during its each call.
func (m *merger) nextGroup(each func(vb []byte) error) (key uint64, ok bool, err error) {
	if len(m.tree) == 0 || m.all[m.tree[0]].done {
		return 0, false, nil
	}
	key = m.all[m.tree[0]].head
	for {
		i := m.tree[0]
		c := &m.all[i]
		if c.done || c.head != key {
			return key, true, nil
		}
		for c.nv > 0 {
			vb, err := c.value()
			if err == nil {
				err = each(vb)
			}
			if err != nil {
				return 0, false, err
			}
		}
		if err := c.next(); err != nil {
			return 0, false, err
		}
		m.replay(i)
	}
}
