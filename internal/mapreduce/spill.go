package mapreduce

import (
	"bufio"
	"bytes"
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
// charged their exact footprint (see spiller.limit). Crossing the worker's
// share of the budget sorts the buffer once by encoded key — an in-place
// radix pass when every key fits 8 bytes, a comparator sort otherwise —
// and writes it as one run file, each key once with its values behind it.
// After the map phase the worker merges its runs through a loser tree —
// intermediate passes keep the fan-in at most mergeFanIn open files — and
// streams each key's concatenated values into the reducer. A worker that
// never crossed its share sorts the buffer and reduces from it through the
// same group walk that writes a run, so the budgeted path has one grouping
// routine.

// mergeFanIn caps how many run files one merge pass reads at once. Runs
// are closed after writing and reopened by the merge, so the engine never
// holds more than mergeFanIn descriptors per worker (plus one writer), no
// matter how many runs a tiny budget produces.
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

// keyPrefixLen is how many leading bytes of an encoded key a runEntry
// carries inline. Keys no longer than this never touch the arena.
const keyPrefixLen = 8

// runEntry is the sort record of one buffered pair: enough of the encoded
// key to decide almost every comparison without a memory indirection.
type runEntry struct {
	prefix uint64 // first keyPrefixLen key bytes, big-endian, zero-padded
	idx    uint32 // arrival index: the pair is buf[idx], the long key arena[offs[idx]:][:klen]
	klen   uint32 // encoded key length
}

// spiller owns one budgeted reduce worker's shuffle state: the flat pair
// buffer, the sort scratch, the run files and the spill accounting. Run
// files are closed as soon as they are written and reopened by the merge,
// so only one descriptor is open while spilling. Every scratch slice lives
// here and is reused, so a warmed spill allocates nothing but the file.
type spiller[K comparable, V any] struct {
	codec Codec[K, V]
	dir   string
	paths []string // written run files, in creation order

	// Budget accounting. A buffered pair costs fixed bytes: its slot in buf,
	// its runEntry and, for a fixed-width key encoding longer than the
	// inline prefix, its arena bytes and offset slot. The buffer therefore
	// holds at most limit pairs: the most that fit the room (the share less
	// the write buffer, at least half of it) plus the crossing one, so a run
	// holds at least one pair; reaching it spills.
	share int64
	limit int
	fixed int64 // the bytes one buffered pair costs
	// keep is the part of the share the worker's reduce phase may hold:
	// the merge's read buffers split it, and a worker that never spilled
	// reduces from its buffer only if the buffer fits it (see settle). It is
	// the whole share unless the reduce phase overlaps another round's
	// shuffle, as in a pipe's first round.
	keep int64

	buf   []pair[K, V]
	ents  []runEntry // sort scratch, one per buffered pair
	arena []byte     // encodings of keys longer than the prefix; raw values of one group while compacting
	offs  []int      // arrival index → arena offset of a long key; value ends while compacting
	val   []byte     // one encoded value
	vs    []V        // one group's values, handed to the reducer
	w     runWriter

	// Spill metrics, folded into the job Metrics by the worker.
	pairs, bytes, runs int64
}

func newSpiller[K comparable, V any](codec Codec[K, V], dir string, share int64) *spiller[K, V] {
	s := &spiller[K, V]{codec: codec, dir: dir, share: share, keep: share}
	room := share - min(int64(s.writeBufSize()), share/2)
	s.fixed = int64(unsafe.Sizeof(pair[K, V]{}) + unsafe.Sizeof(runEntry{}))
	var zero K
	if n := len(codec.AppendKey(nil, zero)); n > keyPrefixLen {
		s.fixed += int64(n) + int64(unsafe.Sizeof(int(0)))
	}
	// runEntry.idx is 32 bits wide.
	s.limit = int(min(room/s.fixed+1, math.MaxUint32))
	return s
}

// writeBufSize is the size of the worker's one run write buffer.
func (s *spiller[K, V]) writeBufSize() int { return runBufSize(s.share / 16) }

// runBufSize clamps a run I/O buffer size to [minRunBuf, maxRunBuf].
func runBufSize(n int64) int {
	return int(min(max(n, minRunBuf), maxRunBuf))
}

// cleanup removes every remaining run file. Safe to call twice; the worker
// defers it so files never outlive the job, even on errors.
func (s *spiller[K, V]) cleanup() {
	for _, p := range s.paths {
		os.Remove(p) // best-effort teardown: nothing to do about a failure
	}
	s.paths = nil
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

// sortBuf encodes every buffered key once and sorts the entries by encoded
// key bytes, arrival order within a key. When every key fits the inline
// prefix (the fixed-width integer encodings) an in-place radix pass over the
// prefix bytes that vary sorts them; a single longer key sends the whole
// buffer through the comparator sort instead.
func (s *spiller[K, V]) sortBuf() error {
	s.ents, s.arena = s.ents[:0], s.arena[:0]
	short := true
	or, and := uint64(0), ^uint64(0)
	for i := range s.buf {
		start := len(s.arena)
		s.arena = s.codec.AppendKey(s.arena, s.buf[i].key)
		kb := s.arena[start:]
		if len(kb) > math.MaxUint32 {
			return fmt.Errorf("mapreduce: spill key encodes to %d bytes", len(kb))
		}
		var p [keyPrefixLen]byte
		copy(p[:], kb)
		prefix := binary.BigEndian.Uint64(p[:])
		or, and = or|prefix, and&prefix
		s.ents = append(s.ents, runEntry{prefix: prefix, idx: uint32(i), klen: uint32(len(kb))})
		if len(kb) <= keyPrefixLen {
			s.arena = s.arena[:start] // the entry holds all of it
			continue
		}
		short = false
		if len(s.offs) < len(s.buf) { // first long key of this sort: older offsets are stale
			s.offs = slices.Grow(s.offs[:0], len(s.buf))[:len(s.buf)]
		}
		s.offs[i] = start
	}
	if short {
		radixSort(s.ents, or^and)
	} else {
		slices.SortFunc(s.ents, s.compare)
	}
	return nil
}

// radixSmall is the bucket size radixSort finishes by insertion sort.
const radixSmall = 32

// radixSort orders entries whose keys all fit the inline prefix by
// (prefix, klen, idx), which is compare's order for such keys: two
// zero-padded prefixes tie only when the shorter key is a byte-wise prefix
// of the longer. It is an MSD (American flag) radix sort, in place: each
// pass counts one bucket's entries by the highest prefix byte set in vary
// (the bits that differ somewhere in the buffer), permutes them into
// sub-buckets by cycle-swapping, and recurses into each sub-bucket with that
// byte cleared. Small buckets, and buckets whose prefixes are all equal, are
// finished by comparison.
//
//lint:hotpath
func radixSort(ents []runEntry, vary uint64) {
	for {
		if len(ents) <= radixSmall {
			insertionSort(ents)
			return
		}
		if vary == 0 {
			slices.SortFunc(ents, compareShort)
			return
		}
		shift := uint(63-bits.LeadingZeros64(vary)) &^ 7
		vary &^= 0xff << shift
		var count [256]int
		for _, e := range ents {
			count[byte(e.prefix>>shift)]++
		}
		if count[byte(ents[0].prefix>>shift)] == len(ents) {
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
				for t := byte(e.prefix >> shift); int(t) != d; t = byte(e.prefix >> shift) {
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

// insertionSort finishes a small radix bucket in compareShort's order.
//
//lint:hotpath
func insertionSort(ents []runEntry) {
	for i := 1; i < len(ents); i++ {
		e, j := ents[i], i
		for ; j > 0 && compareShort(e, ents[j-1]) < 0; j-- {
			ents[j] = ents[j-1]
		}
		ents[j] = e
	}
}

// compareShort is compare for two keys that fit the inline prefix.
//
//lint:hotpath
func compareShort(a, b runEntry) int {
	if a.prefix != b.prefix {
		if a.prefix < b.prefix {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.klen, b.klen); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// tail returns the bytes of a long key past the inline prefix.
func (s *spiller[K, V]) tail(e runEntry) []byte {
	off := s.offs[e.idx]
	return s.arena[off+keyPrefixLen : off+int(e.klen)]
}

// compareKeys orders entries by encoded key bytes. The prefix decides
// almost every comparison. On a prefix tie a key that fits the prefix is a
// byte-wise prefix of the other ("ab" and "ab\x00" tie, being zero-padded),
// so the shorter sorts first; only two long keys need their arena bytes.
//
//lint:hotpath
func (s *spiller[K, V]) compareKeys(a, b runEntry) int {
	if a.prefix != b.prefix {
		if a.prefix < b.prefix {
			return -1
		}
		return 1
	}
	if a.klen > keyPrefixLen && b.klen > keyPrefixLen {
		return bytes.Compare(s.tail(a), s.tail(b))
	}
	return cmp.Compare(a.klen, b.klen)
}

// compare is the sort order: by key, arrival order within a key (which
// keeps a group's value order deterministic given the same arrivals).
//
//lint:hotpath
func (s *spiller[K, V]) compare(a, b runEntry) int {
	if c := s.compareKeys(a, b); c != 0 {
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
		for hi < len(s.ents) && s.compareKeys(s.ents[lo], s.ents[hi]) == 0 {
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

// spill sorts the buffer and writes it as one run file, then empties it.
// Record layout, repeated until EOF, with every length a uvarint:
//
//	klen | key bytes | nvals | nvals × (vlen | value bytes)
//
// Keys appear once per run, ordered by their encoded bytes.
func (s *spiller[K, V]) spill() error {
	if err := s.sortBuf(); err != nil {
		return err
	}
	path, err := s.writeRun(func() error {
		s.walk(func(g []runEntry) bool {
			e := g[0]
			s.w.writeUvarint(uint64(e.klen))
			s.w.writePrefix(e.prefix, min(e.klen, keyPrefixLen))
			if e.klen > keyPrefixLen {
				s.w.write(s.tail(e))
			}
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
	s.paths = append(s.paths, path)
	s.pairs += int64(len(s.buf))
	clear(s.buf) // the emptied buffer must not pin the run's keys and values
	s.buf = s.buf[:0]
	return nil
}

// writeRun creates a run file, has fill write its records through s.w, and
// returns the committed file's path. Until then a defer owns the file: an
// error return or a panic mid-encode (a failing custom codec, an injected
// fault) must not orphan it.
func (s *spiller[K, V]) writeRun(fill func() error) (string, error) {
	f, err := os.CreateTemp(s.dir, "sgmr-spill-*.run")
	if err != nil {
		return "", fmt.Errorf("mapreduce: creating spill file: %w", err)
	}
	committed := false
	defer func() {
		if !committed {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := failpoint.Eval(failpoint.SpillCreate); err != nil {
		return "", fmt.Errorf("mapreduce: creating spill file: %w", err)
	}
	if s.w.buf == nil {
		s.w.buf = make([]byte, 0, s.writeBufSize())
	}
	s.w.f, s.w.buf, s.w.n, s.w.err = f, s.w.buf[:0], 0, nil
	if err := fill(); err != nil {
		return "", err
	}
	s.w.flush()
	err = s.w.err
	s.w.f = nil
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("mapreduce: writing spill file: %w", err)
	}
	committed = true
	s.bytes += s.w.n
	s.runs++
	return f.Name(), nil
}

// settle ends the buffering phase. A worker that never spilled keeps its
// buffer to reduce from if the buffer fits keep (a buffer that never
// crossed the share always fits the whole share); otherwise the rest of the
// buffer is spilled, and the buffer and the write buffer are dropped: the
// merge's read buffers take over the share they held.
func (s *spiller[K, V]) settle() error {
	if len(s.paths) == 0 && int64(len(s.buf))*s.fixed <= s.keep {
		return nil
	}
	if len(s.buf) > 0 {
		if err := s.spill(); err != nil {
			return err
		}
	}
	s.buf, s.ents, s.arena, s.offs, s.w.buf = nil, nil, nil, nil, nil
	return nil
}

// reduce, after settle, streams every key's values into fn and returns the
// number of distinct keys and the largest group, matching what the
// in-memory path would have reported. A false return from fn stops early
// (the group it declined is counted). A worker that kept its buffer
// reduces straight from it, sorted, with the original keys and values; one
// that spilled merges its runs, in ascending encoded-key order either way.
func (s *spiller[K, V]) reduce(fn func(k K, vs []V) bool) (distinct, maxIn int64, err error) {
	if len(s.paths) > 0 {
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
// fn in ascending encoded-key order.
func (s *spiller[K, V]) mergeReduce(fn func(k K, vs []V) bool) (distinct, maxIn int64, err error) {
	if err := failpoint.Eval(failpoint.SpillMerge); err != nil {
		return 0, 0, fmt.Errorf("mapreduce: merging spill runs: %w", err)
	}
	// Intermediate passes: fold the oldest unfolded runs into one until the
	// final merge fits the fan-in cap — no more of them than that takes, so
	// one run over the cap rewrites two runs, not thirty-two. A folded run
	// takes the place of the runs it holds, so the list stays in creation
	// order and a key's values still reach fn in arrival order.
	for at := 0; len(s.paths) > mergeFanIn; at++ {
		if at >= len(s.paths)-1 {
			at = 0 // every run has been folded once: fold the folded ones
		}
		n := min(mergeFanIn, len(s.paths)-mergeFanIn+1, len(s.paths)-at)
		np, err := s.compact(s.paths[at : at+n])
		if err != nil {
			return 0, 0, err
		}
		s.paths[at] = np
		s.paths = slices.Delete(s.paths, at+1, at+n)
	}
	m, err := newMerger(s.paths, s.keep)
	if err != nil {
		return 0, 0, err
	}
	s.paths = nil // merger owns and removes them
	defer m.close()
	decode := s.decodeValue
	for {
		s.vs = s.vs[:0]
		kb, ok, err := m.nextGroup(decode)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return distinct, maxIn, nil
		}
		k, err := s.codec.DecodeKey(kb)
		if err != nil {
			return 0, 0, fmt.Errorf("mapreduce: decoding spilled key: %w", err)
		}
		distinct++
		maxIn = max(maxIn, int64(len(s.vs)))
		if !fn(k, s.vs) {
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

// compact merges the given runs into one new run file, whose path it
// returns. No decoding happens: each group's raw values are gathered into
// the arena (their count precedes them in the record) and re-emitted under
// the key once. The input files are consumed.
func (s *spiller[K, V]) compact(paths []string) (string, error) {
	m, err := newMerger(paths, s.keep)
	if err != nil {
		return "", err
	}
	defer m.close()
	gather := func(vb []byte) error {
		s.arena = append(s.arena, vb...)
		s.offs = append(s.offs, len(s.arena))
		return nil
	}
	return s.writeRun(func() error {
		for {
			s.arena, s.offs = s.arena[:0], s.offs[:0]
			kb, ok, err := m.nextGroup(gather)
			if err != nil || !ok {
				return err
			}
			s.w.writeBytes(kb)
			s.w.writeUvarint(uint64(len(s.offs)))
			start := 0
			for _, end := range s.offs {
				s.w.writeBytes(s.arena[start:end])
				start = end
			}
		}
	})
}

// runWriter writes length-prefixed records to a run file through one
// reused buffer, counting bytes and deferring error checks to the end of
// the run (it remembers the first error). Record pieces are appended to
// the buffer, which goes to the file whenever the next piece would not fit,
// so encoding a record costs appends, not calls.
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

// writePrefix writes the first n bytes of a runEntry's inline key prefix.
func (w *runWriter) writePrefix(prefix uint64, n uint32) {
	w.room(keyPrefixLen)
	w.buf = binary.BigEndian.AppendUint64(w.buf, prefix)[:len(w.buf)+int(n)]
	w.n += int64(n)
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

// runCursor reads one run file record by record. Every length it reads is
// checked against the bytes the file still holds before a buffer grows to
// it, so a torn or bit-flipped run is a read error, never an allocation
// larger than the file.
type runCursor struct {
	f    *os.File
	br   bufio.Reader
	left int64  // bytes of the file not yet consumed
	key  []byte // current record's key
	head uint64 // key's first keyPrefixLen bytes, big-endian, zero-padded
	val  []byte // value buffer, reused: valid until the next value call
	nv   uint64 // values of the current record not yet read
	done bool   // the run is exhausted
}

var errRunVarint = errors.New("length varint overflows 64 bits")

func readRunErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("mapreduce: reading spill run: %w", err)
}

// length reads one uvarint that must not exceed the bytes left after it —
// true of a key or value length and, every value taking at least a byte,
// of a value count. It returns io.EOF untouched only when the file ends
// before the first byte.
func (c *runCursor) length() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := c.br.ReadByte()
		if err != nil {
			if err == io.EOF && shift > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		c.left--
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			x |= uint64(b) << shift
			if x > uint64(max(c.left, 0)) {
				return 0, io.ErrUnexpectedEOF
			}
			return x, nil
		}
		x |= uint64(b&0x7f) << shift
	}
	return 0, errRunVarint
}

// fill reads the next n bytes of the run into buf, growing it if needed.
func (c *runCursor) fill(buf []byte, n uint64) ([]byte, error) {
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	c.left -= int64(n)
	if b, _ := c.br.Peek(c.br.Buffered()); uint64(len(b)) >= n {
		copy(buf, b)
		c.br.Discard(int(n))
		return buf, nil
	}
	_, err := io.ReadFull(&c.br, buf)
	return buf, err
}

// next loads the following record header; false means clean EOF, which
// also marks the cursor done.
func (c *runCursor) next() (bool, error) {
	klen, err := c.length()
	if err == io.EOF {
		c.done = true
		return false, nil
	}
	if err == nil {
		c.key, err = c.fill(c.key, klen)
	}
	if err == nil {
		var p [keyPrefixLen]byte
		copy(p[:], c.key)
		c.head = binary.BigEndian.Uint64(p[:])
	}
	if err == nil {
		c.nv, err = c.length()
	}
	if err != nil {
		return false, readRunErr(err)
	}
	return true, nil
}

// value reads the next raw value of the current record. A value whose
// one-byte length and bytes the read buffer already holds is returned in
// place, valid until the cursor reads again; any other is read into the
// cursor's reusable buffer.
//
//lint:hotpath
func (c *runCursor) value() ([]byte, error) {
	if b, _ := c.br.Peek(c.br.Buffered()); len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) && int64(b[0]) < c.left {
		n := int(b[0]) + 1
		c.br.Discard(n)
		c.left -= int64(n)
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

// merger streams merged key groups out of a set of run files through a
// loser tree over their cursors: leaf i is the cursor of run i, each
// internal node holds the loser of the match played there, and tree[0] the
// overall winner. Advancing the winner replays only its leaf-to-root path,
// one comparison per level. The merger takes ownership of the files: it
// opens each, and closes and removes all of them in close.
type merger struct {
	all  []*runCursor // in run creation order
	tree []int32      // tree[0] the winning cursor, tree[1:] each internal node's loser
	kb   []byte
}

// newMerger opens the runs for one merge pass, splitting share between
// their read buffers.
func newMerger(paths []string, share int64) (*merger, error) {
	// On error the spiller's deferred cleanup still owns every path (the
	// caller only drops them from its list on success), so close() here
	// only needs to release descriptors; double-removal is harmless.
	m := &merger{all: make([]*runCursor, 0, len(paths)), tree: make([]int32, len(paths))}
	cursors := make([]runCursor, len(paths)) // one allocation, not one a run
	size := runBufSize(share / int64(max(len(paths), 1)))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("mapreduce: reopening spill run: %w", err)
		}
		c := &cursors[i]
		c.f, c.br = f, *bufio.NewReaderSize(f, size)
		m.all = append(m.all, c)
		st, err := f.Stat()
		if err != nil {
			m.close()
			return nil, fmt.Errorf("mapreduce: reopening spill run: %w", err)
		}
		c.left = st.Size()
		if _, err := c.next(); err != nil {
			m.close()
			return nil, err
		}
	}
	if len(m.tree) > 0 {
		m.tree[0] = m.play(1)
	}
	return m, nil
}

func (m *merger) close() {
	for _, c := range m.all {
		c.f.Close()
		os.Remove(c.f.Name())
	}
	m.all = nil
	m.tree = nil
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

// beats reports whether cursor i's record comes before cursor j's: by
// encoded key bytes, with the cached heads deciding almost every match, then
// by run order (which keeps value order deterministic given the same runs).
// An exhausted cursor loses to every other. On a head tie a key that fits
// the head is a byte-wise prefix of the other, as in compareKeys.
//
//lint:hotpath
func (m *merger) beats(i, j int32) bool {
	a, b := m.all[i], m.all[j]
	switch {
	case a.done:
		return false
	case b.done:
		return true
	case a.head != b.head:
		return a.head < b.head
	case len(a.key) > keyPrefixLen && len(b.key) > keyPrefixLen:
		if c := bytes.Compare(a.key[keyPrefixLen:], b.key[keyPrefixLen:]); c != 0 {
			return c < 0
		}
	case len(a.key) != len(b.key):
		return len(a.key) < len(b.key)
	}
	return i < j
}

// nextGroup hands each to every raw value, across all runs, of the smallest
// remaining key (by encoded bytes) and returns that key. ok is false once
// the merge is exhausted — the key cannot double as the sentinel because a
// legitimate key may encode to zero bytes (struct{} under DefaultCodec, an
// empty string under a string codec). The key is valid until the next call, a value only during
// its each call.
func (m *merger) nextGroup(each func(vb []byte) error) (kb []byte, ok bool, err error) {
	if len(m.tree) == 0 || m.all[m.tree[0]].done {
		return nil, false, nil
	}
	w := m.all[m.tree[0]]
	head := w.head
	m.kb = append(m.kb[:0], w.key...)
	for {
		i := m.tree[0]
		c := m.all[i]
		if c.done || c.head != head || !bytes.Equal(c.key, m.kb) {
			return m.kb, true, nil
		}
		for c.nv > 0 {
			vb, err := c.value()
			if err == nil {
				err = each(vb)
			}
			if err != nil {
				return nil, false, err
			}
		}
		if _, err := c.next(); err != nil {
			return nil, false, err
		}
		m.replay(i)
	}
}
