package store

import (
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
	var before uint64
	s.View(func(st *State) { before = st.Fingerprint() })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Replay().CorruptTail {
		t.Fatal("clean close replayed as corrupt")
	}
	var after uint64
	var entries []CacheEntry
	var sel map[string]struct{ P, T float64 }
	s2.View(func(st *State) {
		after = st.Fingerprint()
		entries = st.CacheEntries()
		sel = map[string]struct{ P, T float64 }{}
		for side, c := range st.Selectivities("isCeleb") {
			sel[side] = struct{ P, T float64 }{c.Passes, c.Trials}
		}
	})
	if before != after {
		t.Fatalf("fingerprint changed across restart: %x vs %x", before, after)
	}
	if len(entries) != 2 || entries[0].Key.Args != "k1" || entries[0].Answers.Len() != 3 {
		t.Fatalf("cache entries = %+v", entries)
	}
	if sel["right"].T != 2 || sel["right"].P != 1 || sel[""].T != 1 {
		t.Fatalf("selectivities = %+v", sel)
	}
	info := s2.Replay()
	if info.CacheEntries != 2 || info.CacheAnswers != 4 || info.Workers != 2 || info.Votes != 3 {
		t.Fatalf("replay info = %+v", info)
	}
	// 3 selectivity trials + 1 latency + 1 agreement.
	if info.Observations != 5 {
		t.Fatalf("observations = %d, want 5", info.Observations)
	}
	if info.Examples != 1 {
		t.Fatalf("examples = %d", info.Examples)
	}
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
		var n int64
		s2.View(func(st *State) { n = st.Records() })
		if n != int64(len(recs)-1) {
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
		var n3 int64
		s3.View(func(st *State) { n3 = st.Records() })
		if n3 != int64(len(recs)) { // len(recs)-1 recovered + 1 new
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
	s, err := OpenOptions(dir, Options{SegmentBytes: 256, CompactSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < 200; i++ {
		s.Append(Record{Kind: KindSelectivity, Task: "isCat", Pass: i%3 == 0})
		want++
	}
	waitWritten(t, s, want)
	var before uint64
	s.View(func(st *State) { before = st.Fingerprint() })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var after uint64
	var counts map[string]float64
	s2.View(func(st *State) {
		after = st.Fingerprint()
		counts = map[string]float64{}
		for side, c := range st.Selectivities("isCat") {
			counts[side] = c.Trials
		}
	})
	if before != after {
		t.Fatalf("compaction changed state: %x vs %x", before, after)
	}
	if counts[""] != 200 {
		t.Fatalf("trials = %v, want 200", counts)
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

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var trials float64
	s2.View(func(st *State) { trials = st.Selectivities("t")[""].Trials })
	if trials != 50 {
		t.Fatalf("trials = %v, want 50 (double-apply?)", trials)
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatal("covered segment not cleaned up")
	}
}

// TestFailedSegmentWriteDropsBatch makes the active segment's writes
// fail: every record of the failed batch must count as dropped, not as
// written, stay out of the state, and be absent after a reopen, while
// records before and after it survive.
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
	var lostTrials float64
	s.View(func(st *State) { lostTrials = st.Selectivities("lost")[""].Trials })
	if lostTrials != 0 {
		t.Fatalf("state holds %v trials of dropped records", lostTrials)
	}

	// The store keeps going on a fresh segment.
	after := Record{Kind: KindSelectivity, Task: "after", Pass: true}
	s.Append(after)
	waitWritten(t, s, int64(len(good))+1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Dropped != 6 {
		t.Fatalf("dropped = %d after close, want 6", st.Dropped)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var n int64
	s2.View(func(st *State) {
		n = st.Records()
		lostTrials = st.Selectivities("lost")[""].Trials
	})
	if n != int64(len(good))+1 || lostTrials != 0 {
		t.Fatalf("reopen replayed %d records with %v lost trials, want %d and 0", n, lostTrials, len(good)+1)
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
// writer stalled, exactly BufferRecords records are accepted and the
// rest dropped, and once the writer resumes every accepted record is
// written in Append order.
func TestAppendQueueBoundAndOrder(t *testing.T) {
	const bound, extra = 64, 5
	s, err := OpenOptions(t.TempDir(), Options{BufferRecords: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	var entries []CacheEntry
	s.View(func(st *State) { entries = st.CacheEntries() })
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
