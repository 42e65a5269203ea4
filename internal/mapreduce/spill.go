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
	"os"
	"slices"
	"unsafe"

	"subgraphmr/internal/failpoint"
)

// The external shuffle. When Config.MemoryBudget is set, a reduce worker
// keeps no hash table: arriving pairs are appended to one flat buffer and
// charged their exact footprint (see spiller.limit). Crossing the worker's
// share of the budget sorts the buffer once by encoded key and writes it as
// one run file, each key once with its values behind it. After the map
// phase the worker merges its runs with a k-way heap merge — intermediate
// passes keep the fan-in at most mergeFanIn open files — and streams each
// key's concatenated values into the reducer. A worker that never crossed
// its share sorts the buffer and reduces from it through the same group
// walk that writes a run, so the budgeted path has one grouping routine.

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
	s := &spiller[K, V]{codec: codec, dir: dir, share: share}
	room := share - min(int64(s.writeBufSize()), share/2)
	fixed := int64(unsafe.Sizeof(pair[K, V]{}) + unsafe.Sizeof(runEntry{}))
	var zero K
	if n := len(codec.AppendKey(nil, zero)); n > keyPrefixLen {
		fixed += int64(n) + int64(unsafe.Sizeof(int(0)))
	}
	// runEntry.idx is 32 bits wide.
	s.limit = int(min(room/fixed+1, math.MaxUint32))
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
// key bytes, arrival order within a key.
func (s *spiller[K, V]) sortBuf() error {
	s.ents, s.arena = s.ents[:0], s.arena[:0]
	for i := range s.buf {
		start := len(s.arena)
		s.arena = s.codec.AppendKey(s.arena, s.buf[i].key)
		kb := s.arena[start:]
		if len(kb) > math.MaxUint32 {
			return fmt.Errorf("mapreduce: spill key encodes to %d bytes", len(kb))
		}
		var p [keyPrefixLen]byte
		copy(p[:], kb)
		s.ents = append(s.ents, runEntry{prefix: binary.BigEndian.Uint64(p[:]), idx: uint32(i), klen: uint32(len(kb))})
		if len(kb) <= keyPrefixLen {
			s.arena = s.arena[:start] // the entry holds all of it
			continue
		}
		if len(s.offs) < len(s.buf) { // first long key of this sort: older offsets are stale
			s.offs = slices.Grow(s.offs[:0], len(s.buf))[:len(s.buf)]
		}
		s.offs[i] = start
	}
	slices.SortFunc(s.ents, s.compare)
	return nil
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
	if s.w.bw == nil {
		s.w.bw = bufio.NewWriterSize(f, s.writeBufSize())
	}
	s.w.bw.Reset(f)
	s.w.n = 0
	if err := fill(); err != nil {
		return "", err
	}
	err = s.w.bw.Flush()
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

// reduce streams every key's values into fn and returns the number of
// distinct keys and the largest group, matching what the in-memory path
// would have reported. A false return from fn stops early (the group it
// declined is counted). A worker that never spilled reduces straight from
// its sorted buffer with the original keys and values; one that did spills
// the rest and merges its runs, in ascending encoded-key order either way.
func (s *spiller[K, V]) reduce(fn func(k K, vs []V) bool) (distinct, maxIn int64, err error) {
	if len(s.paths) == 0 {
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
	if len(s.buf) > 0 {
		if err := s.spill(); err != nil {
			return 0, 0, err
		}
	}
	// The merge's read buffers take over the share the buffer held.
	s.buf, s.ents, s.arena, s.offs = nil, nil, nil, nil
	return s.mergeReduce(fn)
}

// mergeReduce merges every run and streams each key's decoded values into
// fn in ascending encoded-key order.
func (s *spiller[K, V]) mergeReduce(fn func(k K, vs []V) bool) (distinct, maxIn int64, err error) {
	if err := failpoint.Eval(failpoint.SpillMerge); err != nil {
		return 0, 0, fmt.Errorf("mapreduce: merging spill runs: %w", err)
	}
	// Intermediate passes: fold the oldest runs into one until the final
	// merge fits the fan-in cap — no more of them than that takes, so one
	// run over the cap rewrites two runs, not thirty-two.
	for len(s.paths) > mergeFanIn {
		n := min(mergeFanIn, len(s.paths)-mergeFanIn+1)
		np, err := s.compact(s.paths[:n])
		if err != nil {
			return 0, 0, err
		}
		s.paths = append(s.paths[n:], np)
	}
	m, err := newMerger(s.paths, s.share)
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
	m, err := newMerger(paths, s.share)
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

// runWriter writes length-prefixed records, counting bytes and deferring
// error checks to the flush (bufio.Writer remembers the first error).
type runWriter struct {
	bw  *bufio.Writer
	n   int64
	hdr [binary.MaxVarintLen64]byte
}

func (w *runWriter) writeUvarint(x uint64) {
	w.write(w.hdr[:binary.PutUvarint(w.hdr[:], x)])
}

// writePrefix writes the first n bytes of a runEntry's inline key prefix.
func (w *runWriter) writePrefix(prefix uint64, n uint32) {
	binary.BigEndian.PutUint64(w.hdr[:], prefix)
	w.write(w.hdr[:n])
}

func (w *runWriter) write(b []byte) {
	w.bw.Write(b)
	w.n += int64(len(b))
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
	br   *bufio.Reader
	left int64  // bytes of the file not yet consumed
	key  []byte // current record's key
	val  []byte // value buffer, reused: valid until the next value call
	nv   uint64 // values of the current record not yet read
	ord  int    // heap tie-break: run creation order
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
	_, err := io.ReadFull(c.br, buf)
	c.left -= int64(n)
	return buf, err
}

// next loads the following record header; false means clean EOF.
func (c *runCursor) next() (bool, error) {
	klen, err := c.length()
	if err == io.EOF {
		return false, nil
	}
	if err == nil {
		c.key, err = c.fill(c.key, klen)
	}
	if err == nil {
		c.nv, err = c.length()
	}
	if err != nil {
		return false, readRunErr(err)
	}
	return true, nil
}

// value reads the next raw value of the current record into the cursor's
// reusable buffer.
//
//lint:hotpath
func (c *runCursor) value() ([]byte, error) {
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

// merger streams merged key groups out of a set of run files. It takes
// ownership of the files: it opens each, and closes and removes all of
// them in close.
type merger struct {
	h   []*runCursor // min-heap by (key bytes, run order)
	kb  []byte
	all []*runCursor
}

// newMerger opens the runs for one merge pass, splitting share between
// their read buffers.
func newMerger(paths []string, share int64) (*merger, error) {
	// On error the spiller's deferred cleanup still owns every path (the
	// caller only drops them from its list on success), so close() here
	// only needs to release descriptors; double-removal is harmless.
	m := &merger{}
	size := runBufSize(share / int64(max(len(paths), 1)))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("mapreduce: reopening spill run: %w", err)
		}
		c := &runCursor{f: f, br: bufio.NewReaderSize(f, size), ord: i}
		m.all = append(m.all, c)
		st, err := f.Stat()
		if err != nil {
			m.close()
			return nil, fmt.Errorf("mapreduce: reopening spill run: %w", err)
		}
		c.left = st.Size()
		more, err := c.next()
		if err != nil {
			m.close()
			return nil, err
		}
		if more {
			m.h = append(m.h, c)
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m, nil
}

func (m *merger) close() {
	for _, c := range m.all {
		c.f.Close()
		os.Remove(c.f.Name())
	}
	m.all = nil
	m.h = nil
}

// less orders cursors by encoded key bytes, run order as tie-break (which
// keeps value order deterministic given the same runs).
func (m *merger) less(i, j int) bool {
	if c := bytes.Compare(m.h[i].key, m.h[j].key); c != 0 {
		return c < 0
	}
	return m.h[i].ord < m.h[j].ord
}

// down restores the heap below position i.
func (m *merger) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(m.h) {
			return
		}
		if r := l + 1; r < len(m.h) && m.less(r, l) {
			l = r
		}
		if !m.less(l, i) {
			return
		}
		m.h[i], m.h[l] = m.h[l], m.h[i]
		i = l
	}
}

// nextGroup hands each to every raw value, across all runs, of the smallest
// remaining key (by encoded bytes) and returns that key. ok is false once
// the merge is exhausted — the key cannot double as the sentinel because a
// legitimate key may encode to zero bytes (struct{} under DefaultCodec, an
// empty string under a string codec). The key is valid until the next call, a value only during
// its each call.
func (m *merger) nextGroup(each func(vb []byte) error) (kb []byte, ok bool, err error) {
	if len(m.h) == 0 {
		return nil, false, nil
	}
	m.kb = append(m.kb[:0], m.h[0].key...)
	for len(m.h) > 0 && bytes.Equal(m.h[0].key, m.kb) {
		c := m.h[0]
		for c.nv > 0 {
			vb, err := c.value()
			if err == nil {
				err = each(vb)
			}
			if err != nil {
				return nil, false, err
			}
		}
		more, err := c.next()
		if err != nil {
			return nil, false, err
		}
		if !more {
			last := len(m.h) - 1
			m.h[0] = m.h[last]
			m.h = m.h[:last]
		}
		m.down(0)
	}
	return m.kb, true, nil
}
