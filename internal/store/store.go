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
// The files are the store's only copy of what it knows. Open replays
// the snapshot and the segments into a State and hands it to its caller
// once; the store keeps no State, and the writer only frames and writes
// records. Growth is bounded by snapshot + segment compaction: once
// enough sealed segments accumulate, Compact replays the snapshot and
// the segments it covers into a fresh State, through the replay Open
// uses, writes that State as aggregate records to snapshot.qks (atomic
// rename) and deletes the segments. The snapshot carries the highest
// segment sequence it covers, so a crash between rename and deletion
// can never double-apply.
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

const (
	// bufferRecords is the largest backlog: records accepted by Append
	// but not yet written. An Append beyond it drops the record (counted
	// in Stats.Dropped) instead of blocking the caller. Memory follows
	// the backlog reached, not this bound.
	bufferRecords = 1 << 16
	// segmentBytes rotates the active segment when it grows past this
	// size.
	segmentBytes = 1 << 20
	// compactSegments triggers snapshot compaction once this many
	// segments have been sealed since the last one.
	compactSegments = 4
)

// limits holds a store's bounds: Open uses the constants above, and
// tests reach smaller ones through openWith.
type limits struct {
	bufferRecords   int
	segmentBytes    int64
	compactSegments int
}

// Stats counts store activity.
type Stats struct {
	// Appended counts records accepted into the append queue; Dropped
	// those rejected from it or whose segment write failed; Written
	// those written to a segment.
	Appended, Dropped, Written int64
	Compactions                int64
}

// ReplayInfo summarizes what Open recovered.
type ReplayInfo struct {
	// Records is how many records (including snapshot aggregates) were
	// applied.
	Records int64
	// CorruptTail is true when replay stopped early at a torn or corrupt
	// frame (everything before it was recovered), or could not read a
	// file.
	CorruptTail bool
}

// Store is an open knowledge store. All methods are safe for concurrent
// use.
type Store struct {
	dir string
	lim limits

	lock *os.File // exclusive flock on the directory (nil on non-unix)

	// mu guards the active segment; taken by the writer goroutine per
	// batch and by Compact.
	mu       sync.Mutex
	seg      *os.File // active segment; nil after a failed rotation
	segSeq   uint64
	segBytes int64
	sealed   int // segments sealed since the last compaction

	// qmu guards the append queue. queue collects appended records;
	// spare is the writer's previous batch, reused for the next queue.
	// backlog counts records accepted but not yet written (queue plus
	// the batch in the writer's hands), bounded by lim.bufferRecords.
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

// Open opens (creating if needed) the store rooted at dir and replays
// its files; Replay reports what replay found. The store keeps none of
// what the files hold: OpenState also returns the replayed State.
func Open(dir string) (*Store, error) {
	s, _, err := OpenState(dir)
	return s, err
}

// OpenState is Open that also returns the State replay built, for the
// caller to restore from once: the store keeps no reference to it.
func OpenState(dir string) (*Store, *State, error) {
	return openWith(dir, limits{bufferRecords, segmentBytes, compactSegments})
}

// openWith is OpenState under the given limits.
func openWith(dir string, lim limits) (*Store, *State, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %v", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	rec, err := replayDir(dir)
	if err != nil {
		unlockDir(lock)
		return nil, nil, fmt.Errorf("store: %v", err)
	}
	s := &Store{
		dir:    dir,
		lim:    lim,
		lock:   lock,
		wake:   make(chan struct{}, 1),
		wdone:  make(chan struct{}),
		replay: rec.info,
	}
	// Old segments (replayed or not) stay on disk until compaction; the
	// store only ever appends to a fresh segment, so a torn tail in an
	// old segment can never be extended into confusion.
	s.segSeq = rec.lastSeq + 1
	if err := s.openSegmentLocked(); err != nil {
		unlockDir(lock)
		return nil, nil, err
	}
	go s.writer()
	return s, rec.state, nil
}

// recovered is what one replay of a store directory found.
type recovered struct {
	state *State
	info  ReplayInfo
	// segs are the segments replayed, ascending, and lastSeq the highest
	// segment sequence the directory holds or the snapshot covers.
	segs    []uint64
	lastSeq uint64
	// unread is the first store file that could not be opened or read.
	// Replay goes on without it, as it does past a corrupt tail.
	unread error
}

// replayDir folds dir's snapshot and every segment it does not cover
// into a fresh State, in sequence order. Open and Compact both build
// their State this way. Segments the snapshot covers are deleted
// instead of replayed: a crash interrupted a previous compaction
// between rename and delete, and replaying them would double-apply. It
// fails only when the directory cannot be listed.
func replayDir(dir string) (recovered, error) {
	rec := recovered{state: newState()}
	rp := replayer{in: interner{}}
	covered, snapClean := rp.snapshot(filepath.Join(dir, snapName), rec.state.apply)
	seqs, err := listSegments(dir)
	if err != nil {
		return recovered{}, err
	}
	clean := snapClean
	rec.lastSeq = covered
	for _, seq := range seqs {
		path := filepath.Join(dir, segFileName(seq))
		if seq <= covered {
			os.Remove(path)
			continue
		}
		// Each segment contributes its longest valid prefix; a torn or
		// corrupt tail loses at most that segment's damaged suffix.
		// Later segments still replay: records are independent
		// observations appended by a store that had already accepted the
		// truncation, so applying them never depends on the lost tail.
		if !rp.segment(path, rec.state.apply) {
			clean = false
		}
		rec.segs = append(rec.segs, seq)
		rec.lastSeq = seq
	}
	rec.info = ReplayInfo{Records: rec.state.records, CorruptTail: !clean}
	rec.unread = rp.err
	return rec, nil
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
	if s.closed || s.backlog >= s.lim.bufferRecords {
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
// segment, rotates segments and compacts.
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
			if s.segBytes+int64(len(buf)) >= s.lim.segmentBytes {
				break
			}
		}
		s.writeLocked(batch[:n], buf)
		batch = batch[n:]
	}
	return buf
}

// writeLocked writes recs, framed in buf, to the active segment.
// Records that cannot reach the segment (no active segment after a
// failed rotation, or a failed write) are dropped and counted, so
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
	if s.segBytes >= s.lim.segmentBytes {
		s.rotateLocked()
	}
}

// rotateLocked seals the active segment and opens the next one.
func (s *Store) rotateLocked() {
	s.seg.Close()
	s.sealed++
	s.segSeq++
	if err := s.openSegmentLocked(); err != nil {
		s.seg = nil
	}
}

func (s *Store) maybeCompact() {
	s.mu.Lock()
	n := s.sealed
	s.mu.Unlock()
	if n >= s.lim.compactSegments {
		s.Compact()
	}
}

// Compact seals the active segment, replays the snapshot and every
// segment into a fresh State, writes it as the new snapshot (atomic
// rename), deletes the segments the snapshot covers, and starts a fresh
// segment. If a file cannot be read or the snapshot cannot be written,
// the segments stay, eligible for the next attempt.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return fmt.Errorf("store: no active segment")
	}
	s.seg.Close()
	covered := s.segSeq
	s.segSeq++
	segs, err := s.snapshotLocked(covered)
	if err == nil {
		for _, seq := range segs {
			os.Remove(filepath.Join(s.dir, segFileName(seq)))
		}
		s.sealed = 0
		s.compactions.Add(1)
	} else {
		s.sealed++
	}
	// Appends keep flowing to a fresh segment either way.
	if oerr := s.openSegmentLocked(); oerr != nil {
		s.seg = nil
		err = errors.Join(err, oerr)
	}
	return err
}

// snapshotLocked replays the store's files, through segment covered,
// and writes what they hold as the snapshot covering it. It returns the
// segments the snapshot folded.
func (s *Store) snapshotLocked(covered uint64) ([]uint64, error) {
	rec, err := replayDir(s.dir)
	if err == nil {
		err = rec.unread
	}
	if err != nil {
		return nil, fmt.Errorf("store: compact: %v", err)
	}
	data := encodeRecordsFile(covered, rec.state.snapshotRecords())
	if err := writeFileAtomic(filepath.Join(s.dir, snapName), data); err != nil {
		return nil, err
	}
	return rec.segs, nil
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
