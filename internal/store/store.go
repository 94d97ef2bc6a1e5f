// Package store implements Qurk's durable knowledge store: an embedded,
// append-only, WAL-backed log of everything the engine learns from the
// crowd — Task Cache entries, Statistics Manager selectivity/latency/
// agreement observations (keyed per join side), Task Model training
// examples, and worker reputation events.
//
// Every record is CRC-framed; replay recovers the longest valid prefix,
// so a torn write (crash mid-append) loses at most the torn record.
// Replay streams each file through one small buffered reader and a
// reused frame buffer, and decodes each frame in place: task, side and
// worker names are interned once per replay, and only Args and the
// encoded answer list are copied out, each as one string.
//
// Appending is asynchronous through a bounded queue: producers (the
// task manager's finalization paths) never block. Append adds the record
// to a mutex-guarded slice and wakes the single writer goroutine, which
// swaps out the whole backlog at once, so the queue's memory grows with
// the backlog reached, not with its bound. At the bound the record is
// dropped and counted, trading completeness for latency, which is the
// right trade for advisory knowledge that only tunes future decisions.
// The writer frames a batch into one reused buffer and writes it with
// one call per segment it fills; a record whose write fails is dropped
// and counted too. Close marks the store closed under the queue lock, so
// each Append is either written by the writer's final drain or dropped.
//
// Growth is bounded by snapshot + segment compaction: the store folds
// every record into an in-memory State; when enough sealed segments
// accumulate it writes the State as aggregate records to snapshot.qks
// (atomic rename) and deletes the segments. The snapshot carries the
// highest segment sequence it covers, so a crash between rename and
// deletion can never double-apply.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Options tunes a store; zero values take the documented defaults.
type Options struct {
	// BufferRecords is the largest backlog: records accepted by Append
	// but not yet written (default 65536). An Append beyond it drops the
	// record (counted in Stats.Dropped) instead of blocking the caller.
	// Memory follows the backlog reached, not this bound.
	BufferRecords int
	// SegmentBytes rotates the active segment when it grows past this
	// size (default 1 MiB).
	SegmentBytes int64
	// CompactSegments triggers snapshot compaction once this many sealed
	// segments exist (default 4).
	CompactSegments int
}

func (o Options) withDefaults() Options {
	if o.BufferRecords <= 0 {
		o.BufferRecords = 1 << 16
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = 4
	}
	return o
}

// Stats counts store activity.
type Stats struct {
	// Appended counts records accepted into the append queue; Dropped
	// those rejected from it or whose segment write failed; Written
	// those written to a segment.
	Appended, Dropped, Written int64
	Compactions                int64
}

// ReplayInfo summarizes what Open recovered, for the dashboard's
// warm-start panel.
type ReplayInfo struct {
	// Records is how many records (including snapshot aggregates) were
	// applied.
	Records int64
	// CacheEntries / CacheAnswers are the replayed Task Cache contents.
	CacheEntries, CacheAnswers int64
	// Observations totals the statistics evidence restored: selectivity
	// trials plus latency and agreement observation counts.
	Observations int64
	// Examples counts replayed model training examples; Workers and
	// Votes the replayed reputation.
	Examples, Workers, Votes int64
	// CorruptTail is true when replay stopped early at a torn or corrupt
	// frame (everything before it was recovered).
	CorruptTail bool
}

// Store is an open knowledge store. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	lock *os.File // exclusive flock on the directory (nil on non-unix)

	// mu guards state and the active segment; taken by the writer
	// goroutine per batch, by View, and by Compact.
	mu       sync.Mutex
	state    *State
	seg      *os.File // active segment; nil after a failed rotation
	segSeq   uint64
	segBytes int64
	sealed   []uint64 // sealed segment seqs awaiting compaction

	// qmu guards the append queue. queue collects appended records;
	// spare is the writer's previous batch, reused for the next queue.
	// backlog counts records accepted but not yet written (queue plus
	// the batch in the writer's hands), bounded by Options.BufferRecords.
	qmu     sync.Mutex
	queue   []Record
	spare   []Record
	backlog int
	closed  bool
	// wake holds at most one pending signal that the queue is non-empty
	// or the store is closing.
	wake      chan struct{}
	wdone     chan struct{}
	closeOnce sync.Once
	closeErr  error

	appended, dropped, written, compactions atomic.Int64
	replay                                  ReplayInfo
}

// Open opens (creating if needed) the store rooted at dir with default
// options and replays its contents into memory.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with explicit tuning.
func OpenOptions(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		lock:  lock,
		state: NewState(),
		wake:  make(chan struct{}, 1),
		wdone: make(chan struct{}),
	}

	rp := replayer{in: interner{}}
	covered, _, snapClean := rp.snapshot(filepath.Join(dir, snapName), s.state.apply)
	if !snapClean {
		s.replay.CorruptTail = true
	}
	seqs, err := listSegments(dir)
	if err != nil {
		unlockDir(lock)
		return nil, fmt.Errorf("store: %v", err)
	}
	maxSeq := covered
	for _, seq := range seqs {
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq <= covered {
			// Already folded into the snapshot: a crash interrupted a
			// previous compaction between rename and delete. Deleting it
			// (instead of replaying) is what prevents double-apply.
			os.Remove(filepath.Join(dir, segFileName(seq)))
			continue
		}
		// Each segment contributes its longest valid prefix; a torn or
		// corrupt tail loses at most that segment's damaged suffix.
		// Later segments still replay: records are independent
		// observations appended by a store that had already accepted the
		// truncation, so applying them never depends on the lost tail.
		_, clean := rp.segment(filepath.Join(dir, segFileName(seq)), s.state.apply)
		if !clean {
			s.replay.CorruptTail = true
		}
	}
	s.summarizeReplay()

	// Old segments (replayed or not) stay on disk until compaction; the
	// store only ever appends to a fresh segment, so a torn tail in an
	// old segment can never be extended into confusion.
	s.segSeq = maxSeq + 1
	if err := s.openSegmentLocked(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	go s.writer()
	return s, nil
}

// summarizeReplay derives ReplayInfo counts from the replayed state.
func (s *Store) summarizeReplay() {
	st := s.state
	s.replay.Records = st.records
	s.replay.CacheEntries = int64(len(st.cache))
	for _, answers := range st.cache {
		s.replay.CacheAnswers += int64(answers.Len())
	}
	for _, sides := range st.sel {
		// Each (task, side) entry holds distinct observations: the
		// combined estimator is reconstituted at Restore as their sum,
		// so summing here counts every observation exactly once.
		for _, c := range sides {
			s.replay.Observations += int64(c.Trials)
		}
	}
	for _, e := range st.lat {
		s.replay.Observations += int64(e.Count())
	}
	for _, e := range st.agr {
		s.replay.Observations += int64(e.Count())
	}
	for _, exs := range st.examples {
		s.replay.Examples += int64(len(exs))
	}
	s.replay.Workers = int64(len(st.reput))
	for _, c := range st.reput {
		s.replay.Votes += c.Votes
	}
}

// openSegmentLocked creates the next active segment and writes its
// header. Callers hold mu or have exclusive access.
func (s *Store) openSegmentLocked() error {
	f, err := os.Create(filepath.Join(s.dir, segFileName(s.segSeq)))
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if _, err := io.WriteString(f, segMagic); err != nil {
		f.Close()
		return fmt.Errorf("store: %v", err)
	}
	s.seg = f
	s.segBytes = int64(len(segMagic))
	return nil
}

// Append enqueues one record for asynchronous durability. It never
// blocks: a full backlog (or a closed store) drops the record and
// increments Stats.Dropped.
func (s *Store) Append(rec Record) {
	s.qmu.Lock()
	if s.closed || s.backlog >= s.opts.BufferRecords {
		s.qmu.Unlock()
		s.dropped.Add(1)
		return
	}
	s.queue = append(s.queue, rec)
	s.backlog++
	s.appended.Add(1)
	s.qmu.Unlock()
	s.signal()
}

// signal wakes the writer unless a wake-up is already pending.
func (s *Store) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// writer is the single goroutine that writes records to the active
// segment, folds them into the state, rotates segments and compacts.
func (s *Store) writer() {
	defer close(s.wdone)
	var buf []byte
	for range s.wake {
		batch, closing := s.takeBacklog()
		buf = s.writeBatch(batch, buf)
		s.returnBatch(batch)
		if closing {
			return
		}
		s.maybeCompact()
	}
}

// takeBacklog swaps out everything queued so far, handing the spare
// slice to producers, and reports whether the store is closing. Once it
// reports closing, no later Append is accepted, so this batch is the
// last.
func (s *Store) takeBacklog() (batch []Record, closing bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	batch, s.queue, s.spare = s.queue, s.spare, nil
	return batch, s.closed
}

// returnBatch releases a handled batch's backlog and keeps its slice,
// emptied so it pins no record data, as the next spare.
func (s *Store) returnBatch(batch []Record) {
	clear(batch)
	s.qmu.Lock()
	s.backlog -= len(batch)
	s.spare = batch[:0]
	s.qmu.Unlock()
}

// writeBatch frames batch into buf and writes it to the active segment
// with one call per segment it fills: a chunk ends at the record that
// brings the segment to its rotation size. It returns buf for reuse.
func (s *Store) writeBatch(batch []Record, buf []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(batch) > 0 {
		buf = buf[:0]
		n := 0
		for n < len(batch) {
			buf = appendRecordFrame(buf, batch[n])
			n++
			if s.segBytes+int64(len(buf)) >= s.opts.SegmentBytes {
				break
			}
		}
		s.writeLocked(batch[:n], buf)
		batch = batch[n:]
	}
	return buf
}

// writeLocked writes recs, framed in buf, to the active segment and
// folds them into the state. Records that cannot reach the segment (no
// active segment after a failed rotation, or a failed write) are
// dropped: counted, and kept out of the in-memory state too, so
// Stats.Dropped is the one honest signal of what the next engine will
// not see. A failed write may leave a torn frame, so it also seals the
// segment; later records go to a fresh one, which replay still reaches.
func (s *Store) writeLocked(recs []Record, buf []byte) {
	if s.seg == nil {
		s.dropped.Add(int64(len(recs)))
		return
	}
	if _, err := s.seg.Write(buf); err != nil {
		s.dropped.Add(int64(len(recs)))
		s.rotateLocked()
		return
	}
	s.segBytes += int64(len(buf))
	s.written.Add(int64(len(recs)))
	for i := range recs {
		s.state.apply(recs[i])
	}
	if s.segBytes >= s.opts.SegmentBytes {
		s.rotateLocked()
	}
}

// rotateLocked seals the active segment and opens the next one.
func (s *Store) rotateLocked() {
	s.seg.Close()
	s.sealed = append(s.sealed, s.segSeq)
	s.segSeq++
	if err := s.openSegmentLocked(); err != nil {
		s.seg = nil
	}
}

func (s *Store) maybeCompact() {
	s.mu.Lock()
	n := len(s.sealed)
	s.mu.Unlock()
	if n >= s.opts.CompactSegments {
		s.Compact()
	}
}

// Compact seals the active segment, writes the whole state as the new
// snapshot (atomic rename), deletes every segment the snapshot covers,
// and starts a fresh segment.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return fmt.Errorf("store: no active segment")
	}
	s.seg.Close()
	covered := s.segSeq
	data := encodeRecordsFile(covered, s.state.snapshotRecords())
	if err := writeFileAtomic(filepath.Join(s.dir, snapName), data); err != nil {
		// Reopen a fresh segment so appends keep flowing; the sealed
		// segments (including the one just closed) remain replayable and
		// eligible for the next compaction attempt.
		s.sealed = append(s.sealed, covered)
		s.segSeq++
		if oerr := s.openSegmentLocked(); oerr != nil {
			s.seg = nil
		}
		return err
	}
	for _, seq := range s.sealed {
		os.Remove(filepath.Join(s.dir, segFileName(seq)))
	}
	os.Remove(filepath.Join(s.dir, segFileName(covered)))
	s.sealed = nil
	s.segSeq = covered + 1
	s.compactions.Add(1)
	if err := s.openSegmentLocked(); err != nil {
		s.seg = nil
		return err
	}
	return nil
}

// View runs f with the store's materialized state under the store lock.
// The state must not be retained or mutated; copy what you need.
func (s *Store) View(f func(*State)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.state)
}

// Replay reports what Open recovered.
func (s *Store) Replay() ReplayInfo { return s.replay }

// Stats reports activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Appended:    s.appended.Load(),
		Dropped:     s.dropped.Load(),
		Written:     s.written.Load(),
		Compactions: s.compactions.Load(),
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close drains the append queue, syncs the active segment, and shuts
// the writer down. Records appended after Close are dropped.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.qmu.Lock()
		s.closed = true
		s.qmu.Unlock()
		// A wake-up already pending is received after closed was set, so
		// either way the writer's next take sees it and drains for good.
		s.signal()
		<-s.wdone
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.seg != nil {
			s.closeErr = errors.Join(s.seg.Sync(), s.seg.Close())
			s.seg = nil
		}
		unlockDir(s.lock)
		s.lock = nil
	})
	return s.closeErr
}
