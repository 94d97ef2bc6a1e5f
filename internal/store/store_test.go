package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/relation"
)

// waitWritten polls until the writer has durably framed n records (the
// append path is asynchronous by design).
func waitWritten(t *testing.T, s *Store, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Written < n {
		if time.Now().After(deadline) {
			t.Fatalf("writer stuck: written %d of %d", s.Stats().Written, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func boolAnswers(bs ...bool) cache.Answers {
	vs := make([]relation.Value, len(bs))
	for i, b := range bs {
		vs[i] = relation.NewBool(b)
	}
	return cache.EncodeAnswers(vs)
}

func sampleRecords() []Record {
	return []Record{
		{Kind: KindCacheEntry, Task: "isCat", Args: "k1", Answers: boolAnswers(true, true, false)},
		{Kind: KindCacheEntry, Task: "isCat", Args: "k2", Answers: boolAnswers(false)},
		{Kind: KindSelectivity, Task: "isCeleb", Side: "right", Pass: true},
		{Kind: KindSelectivity, Task: "isCeleb", Side: "right", Pass: false},
		{Kind: KindSelectivity, Task: "isCeleb", Pass: true},
		{Kind: KindLatency, Task: "isCat", X: 4.5},
		{Kind: KindAgreement, Task: "isCat", X: 0.9},
		{Kind: KindModelExample, Task: "isCat", Args: string(relation.NewString("tabby").Encode(nil)), Pass: true},
		{Kind: KindReputation, Worker: "w1", Pass: true},
		{Kind: KindReputation, Worker: "w1", Pass: false},
		{Kind: KindReputation, Worker: "w2", Pass: true},
	}
}

func appendAll(t *testing.T, s *Store, recs []Record) {
	t.Helper()
	for _, r := range recs {
		s.Append(r)
	}
	waitWritten(t, s, int64(len(recs)))
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	appendAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Replay().CorruptTail {
		t.Fatal("clean close replayed as corrupt")
	}
	if want, got := stateOf(recs).Fingerprint(), st.Fingerprint(); want != got {
		t.Fatalf("fingerprint changed across restart: %x vs %x", want, got)
	}
	entries := cacheEntries(st)
	if len(entries) != 2 || entries[0].Key.Args != "k1" || entries[0].Answers.Len() != 3 {
		t.Fatalf("cache entries = %+v", entries)
	}
	sel := map[string]struct{ P, T float64 }{}
	for side, c := range st.Selectivities("isCeleb") {
		sel[side] = struct{ P, T float64 }{c.Passes, c.Trials}
	}
	if sel["right"].T != 2 || sel["right"].P != 1 || sel[""].T != 1 {
		t.Fatalf("selectivities = %+v", sel)
	}
	var answers, votes int64
	for _, e := range entries {
		answers += int64(e.Answers.Len())
	}
	reps := st.Reputations()
	for _, c := range reps {
		votes += c.Votes
	}
	if answers != 4 || len(reps) != 2 || votes != 3 {
		t.Fatalf("replayed %d cache answers, %d workers and %d votes, want 4, 2 and 3", answers, len(reps), votes)
	}
	// 3 selectivity trials + 1 latency + 1 agreement.
	var observations int64
	for _, task := range st.StatTasks() {
		for _, c := range st.Selectivities(task) {
			observations += int64(c.Trials)
		}
		observations += int64(st.Latency(task).N + st.Agreement(task).N)
	}
	if observations != 5 {
		t.Fatalf("observations = %d, want 5", observations)
	}
	if n := len(st.ModelExamples()["isCat"]); n != 1 {
		t.Fatalf("examples = %d", n)
	}
	if n := s2.Replay().Records; n != int64(len(recs)) {
		t.Fatalf("replay info counts %d records, want %d", n, len(recs))
	}
}

// stateOf folds recs into a fresh State, as replay does.
func stateOf(recs []Record) *State {
	st := newState()
	for _, r := range recs {
		st.apply(r)
	}
	return st
}

// cacheEntry is one entry State.CacheEntries yields.
type cacheEntry struct {
	Key     cache.Key
	Answers cache.Answers
}

// cacheEntries collects st's cache entries in the order they are yielded.
func cacheEntries(st *State) []cacheEntry {
	var out []cacheEntry
	for key, answers := range st.CacheEntries() {
		out = append(out, cacheEntry{key, answers})
	}
	return out
}

// TestTornWriteRecoversPrefix is the crash-safety acceptance test:
// truncating the WAL mid-record loses at most the torn record — replay
// recovers every earlier record and the store opens cleanly.
func TestTornWriteRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	appendAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v err = %v", segs, err)
	}
	path := filepath.Join(dir, segFileName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Find where the last record's frame starts by re-walking frames,
	// then tear the file at points inside that record; replay must
	// recover exactly the earlier records each time.
	offsets := frameOffsets(t, data)
	if len(offsets) != len(recs) {
		t.Fatalf("frames = %d, want %d", len(offsets), len(recs))
	}
	lastStart := offsets[len(offsets)-1]
	for _, cut := range []int{lastStart + 1, lastStart + frameHdr, len(data) - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("open after torn write at %d: %v", cut, err)
		}
		if n := s2.Replay().Records; n != int64(len(recs)-1) {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, len(recs)-1)
		}
		if !s2.Replay().CorruptTail {
			t.Fatalf("cut %d: corrupt tail not reported", cut)
		}
		// The store must keep working after recovery: append + reopen.
		s2.Append(Record{Kind: KindSelectivity, Task: "t", Pass: true})
		waitWritten(t, s2, 1)
		s2.Close()
		s3, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if n3 := s3.Replay().Records; n3 != int64(len(recs)) { // len(recs)-1 recovered + 1 new
			t.Fatalf("cut %d: after recovery append, %d records, want %d", cut, n3, len(recs))
		}
		s3.Close()
		// Restore the full segment bytes for the next truncation point.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Remove segments created by the recovery stores so the next
		// iteration replays only the original one.
		segs, _ := listSegments(dir)
		for _, seq := range segs {
			if seq != segs[0] {
				os.Remove(filepath.Join(dir, segFileName(seq)))
			}
		}
	}
}

// frameOffsets returns the byte offset (within the file) where each
// frame starts.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		t.Fatal("bad segment magic")
	}
	var offs []int
	pos := len(segMagic)
	for pos < len(data) {
		offs = append(offs, pos)
		n := int(uint32(data[pos]) | uint32(data[pos+1])<<8 | uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24)
		pos += frameHdr + n
	}
	return offs
}

func TestCompactionFoldsSegmentsIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation; low threshold forces compaction.
	s, _, err := openWith(dir, limits{bufferRecords: bufferRecords, segmentBytes: 256, compactSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 200; i++ {
		rec := Record{Kind: KindSelectivity, Task: "isCat", Pass: i%3 == 0}
		s.Append(rec)
		recs = append(recs, rec)
	}
	waitWritten(t, s, int64(len(recs)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot: %v", err)
	}

	s2, st, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if want, got := stateOf(recs).Fingerprint(), st.Fingerprint(); want != got {
		t.Fatalf("compaction changed state: %x vs %x", want, got)
	}
	counts := map[string]float64{}
	for side, c := range st.Selectivities("isCat") {
		counts[side] = c.Trials
	}
	if counts[""] != 200 {
		t.Fatalf("trials = %v, want 200", counts)
	}
}

// TestCompactKeepsSegmentsItCannotRead: a compaction whose replay
// cannot read one of the store's files writes no snapshot and deletes
// no segment, so nothing is lost; appends go on to a fresh segment, and
// the next compaction that can read every file folds them all.
func TestCompactKeepsSegmentsItCannotRead(t *testing.T) {
	dir := t.TempDir()
	// A directory named like a segment opens, but reading it fails.
	unreadable := filepath.Join(dir, segFileName(1))
	if err := os.MkdirAll(unreadable, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Replay().CorruptTail {
		t.Error("an unreadable segment was not reported")
	}
	recs := sampleRecords()
	appendAll(t, s, recs)
	if err := s.Compact(); err == nil {
		t.Fatal("compaction over an unreadable segment succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); !os.IsNotExist(err) {
		t.Fatalf("a failed compaction left a snapshot: %v", err)
	}
	after := Record{Kind: KindLatency, Task: "after", X: 1}
	s.Append(after)
	waitWritten(t, s, int64(len(recs))+1)
	if err := os.Remove(unreadable); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	s2, st, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if want := stateOf(append(recs, after)); st.Fingerprint() != want.Fingerprint() {
		t.Fatal("records written before or after the failed compaction are lost")
	}
}

// TestFailedCompactionBacksOff: while a compaction keeps failing (an
// unreadable file named like segment 1), the writer retries only after
// compactSegments more seals, not after every batch, so the failed
// attempts do not leave a segment per batch behind: 400 one-record
// batches over 256-byte segments leave under 100 files, where retrying
// after every batch left one per batch.
func TestFailedCompactionBacksOff(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, segFileName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	s, _, err := openWith(dir, limits{bufferRecords: bufferRecords, segmentBytes: 256, compactSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 400
	for i := 0; i < batches; i++ {
		s.Append(Record{Kind: KindSelectivity, Task: "isCat", Pass: i%3 == 0})
		waitWritten(t, s, int64(i+1))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 100 {
		t.Fatalf("%d files after %d one-record batches over a failing compaction, want at most 100", len(entries), batches)
	}
	if st := s.Stats(); st.Compactions != 0 || st.Written != batches {
		t.Fatalf("stats %+v, want %d written and no compaction", st, batches)
	}
}

// TestCrashedCompactionNeverDoubleApplies simulates a crash between the
// snapshot rename and the segment deletion: reopening must skip (and
// clean up) segments the snapshot already covers.
func TestCrashedCompactionNeverDoubleApplies(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Append(Record{Kind: KindSelectivity, Task: "t", Pass: true})
	}
	waitWritten(t, s, 50)
	activeSeq := s.segSeq
	segPath := filepath.Join(dir, segFileName(activeSeq))
	segData, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Resurrect the covered segment, as if deletion never happened.
	if err := os.WriteFile(segPath, segData, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, st, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if trials := st.Selectivities("t")[""].Trials; trials != 50 {
		t.Fatalf("trials = %v, want 50 (double-apply?)", trials)
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatal("covered segment not cleaned up")
	}
}

// TestFailedSegmentWriteDropsBatch makes the active segment's writes
// fail: every record of the failed batch must count as dropped, not as
// written, be absent from the snapshot a compaction then writes and
// after a reopen, while records before and after it survive.
func TestFailedSegmentWriteDropsBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := sampleRecords()
	appendAll(t, s, good)

	s.mu.Lock()
	s.seg.Close() // every later write to this segment fails
	s.mu.Unlock()
	lost := make([]Record, 5)
	for i := range lost {
		lost[i] = Record{Kind: KindSelectivity, Task: "lost", Pass: true}
	}
	s.writeBatch(lost, nil)
	// A single Append through the writer goroutine fails the same way
	// once the replacement segment is closed too.
	s.mu.Lock()
	s.seg.Close()
	s.mu.Unlock()
	s.Append(Record{Kind: KindSelectivity, Task: "lost", Pass: false})
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Dropped < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want 6", s.Stats().Dropped)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Written != int64(len(good)) {
		t.Fatalf("written = %d, want %d: a failed write counted as written", st.Written, len(good))
	}

	// The store keeps going on a fresh segment, and a compaction folds
	// only what reached a segment.
	after := Record{Kind: KindSelectivity, Task: "after", Pass: true}
	s.Append(after)
	waitWritten(t, s, int64(len(good))+1)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(append(good, after))
	snap := newState()
	rp := replayer{in: interner{}}
	if _, clean := rp.snapshot(filepath.Join(dir, snapName), snap.apply); !clean {
		t.Fatal("snapshot does not replay cleanly")
	}
	if snap.Fingerprint() != want.Fingerprint() {
		t.Fatalf("snapshot holds %v trials of dropped records and %v of the record after them, want 0 and 1",
			snap.Selectivities("lost")[""].Trials, snap.Selectivities("after")[""].Trials)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Dropped != 6 {
		t.Fatalf("dropped = %d after close, want 6", st.Dropped)
	}

	s2, st, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The snapshot holds one aggregate record per key.
	n, lostTrials := s2.Replay().Records, st.Selectivities("lost")[""].Trials
	if wantN := int64(len(want.snapshotRecords())); n != wantN || lostTrials != 0 || st.Fingerprint() != want.Fingerprint() {
		t.Fatalf("reopen replayed %d records with %v lost trials, want %d and 0", n, lostTrials, wantN)
	}
}

func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.lock != nil { // platforms without flock skip the contention check
		if _, err := Open(dir); err == nil {
			t.Fatal("second Open on a locked store must fail")
		}
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	s2.Close()
}

func TestAppendAfterCloseDrops(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Append(Record{Kind: KindSelectivity, Task: "t"})
	if st := s.Stats(); st.Dropped != 1 || st.Appended != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAppendRacingCloseCountsEveryRecord races producers against Close:
// every Append must end up either written or dropped, never accepted and
// then lost because it landed behind the writer's final drain.
func TestAppendRacingCloseCountsEveryRecord(t *testing.T) {
	const producers, perProducer, iterations = 4, 500, 50
	for it := 0; it < iterations; it++ {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					s.Append(Record{Kind: KindSelectivity, Task: "t", Pass: i%2 == 0})
				}
			}()
		}
		runtime.Gosched()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		st := s.Stats()
		if st.Appended != st.Written {
			t.Fatalf("iteration %d: appended %d but wrote %d", it, st.Appended, st.Written)
		}
		if st.Appended+st.Dropped != producers*perProducer {
			t.Fatalf("iteration %d: appended %d + dropped %d != %d calls", it, st.Appended, st.Dropped, producers*perProducer)
		}
	}
}

// TestAppendQueueBoundAndOrder pins the queue's contract: with the
// writer stalled, exactly bufferRecords records are accepted and the
// rest dropped, and once the writer resumes every accepted record is
// written in Append order.
func TestAppendQueueBoundAndOrder(t *testing.T) {
	const bound, extra = 64, 5
	dir := t.TempDir()
	s, _, err := openWith(dir, limits{bufferRecords: bound, segmentBytes: segmentBytes, compactSegments: compactSegments})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock() // the writer cannot frame anything while this is held
	for i := 0; i < bound+extra; i++ {
		s.Append(Record{Kind: KindCacheEntry, Task: "t", Args: strconv.Itoa(i), Answers: boolAnswers(true)})
	}
	st := s.Stats()
	s.mu.Unlock()
	if st.Appended != bound || st.Dropped != extra {
		t.Fatalf("stalled writer: appended %d dropped %d, want %d and %d", st.Appended, st.Dropped, bound, extra)
	}
	waitWritten(t, s, bound)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, replayed, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	entries := cacheEntries(replayed)
	if len(entries) != bound {
		t.Fatalf("%d cache entries, want %d", len(entries), bound)
	}
	for i, e := range entries {
		if e.Key.Args != strconv.Itoa(i) {
			t.Fatalf("entry %d has args %q: records written out of Append order", i, e.Key.Args)
		}
	}
}

// TestOpenEmptyStoreAllocatesLittle keeps the append queue sized by its
// backlog: a queue allocated at its full bound (64Ki records) would cost
// megabytes on every Open.
func TestOpenEmptyStoreAllocatesLittle(t *testing.T) {
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	s.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("opening an empty store allocated %d bytes, want under 1 MiB", got)
	}
}

func TestDecodeArgsRoundTrip(t *testing.T) {
	vals := []relation.Value{relation.NewString("x"), relation.NewInt(42), relation.NewBool(true)}
	var enc []byte
	for _, v := range vals {
		enc = v.Encode(enc)
	}
	got, err := DecodeArgs(string(enc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Str() != "x" || got[1].Int() != 42 || !got[2].Truthy() {
		t.Fatalf("decoded = %v", got)
	}
}

// TestOpenStopsAtOversizedAnswerCount: a CRC-valid cache-entry frame
// whose answer is a list claiming more elements than it has bytes fails
// to decode, so replay stops there — keeping the record before it and
// dropping the one after — instead of sizing a slice from the count.
func TestOpenStopsAtOversizedAnswerCount(t *testing.T) {
	bad := []byte("61000000000000000|")
	answers := cache.Answers(append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), uint64(len(bad))), bad...))
	seg := []byte(segMagic)
	seg = appendRecordFrame(seg, Record{Kind: KindCacheEntry, Task: "isCat", Args: "k1",
		Answers: cache.EncodeAnswers([]relation.Value{relation.NewBool(true)})})
	seg = appendRecordFrame(seg, Record{Kind: KindCacheEntry, Task: "isCat", Args: "k2", Answers: answers})
	seg = appendRecordFrame(seg, Record{Kind: KindLatency, Task: "isCat", X: 2})
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segFileName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, st, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Replay().CorruptTail {
		t.Error("replay did not report the bad frame")
	}
	records, entries := s.Replay().Records, cacheEntries(st)
	if records != 1 || len(entries) != 1 || entries[0].Key.Args != "k1" {
		t.Fatalf("replayed %d records, cache %+v; want only the first record", records, entries)
	}
}
