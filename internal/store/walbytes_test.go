package store

import (
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/relation"
)

// walBytesFixture holds the segment bytes TestWALBytesUnchanged expects,
// as hex, 32 bytes to a line.
const walBytesFixture = "testdata/wal_bytes.hex"

// answerList builds a cache record's answer list.
func answerList(vs ...relation.Value) cache.Answers { return cache.EncodeAnswers(vs) }

// walBytesRecords is a fixed record set that covers every record kind
// and, in its cache entries, every answer kind the engine caches:
// booleans, integers, floats (with −0 and ±Inf), strings (with the
// empty string and one whose length prefix takes two bytes), images,
// NULL, lists and tuples (nested), and an empty answer list.
func walBytesRecords() []Record {
	str, i, f, b := relation.NewString, relation.NewInt, relation.NewFloat, relation.NewBool
	key := func(vs ...relation.Value) string {
		var enc []byte
		for _, v := range vs {
			enc = v.Encode(enc)
		}
		return string(enc)
	}
	ceo := relation.NewTuple(
		relation.Field{Name: "CEO", Value: str("Ada Lovelace")},
		relation.Field{Name: "Phone", Value: str("")},
		relation.Field{Name: "Board", Value: relation.NewList(str("x"), i(7), relation.NewTuple(relation.Field{Name: "n", Value: f(0.5)}))},
	)
	return []Record{
		{Kind: KindCacheEntry, Task: "isCat", Args: key(relation.NewImage("cat1.png")), Answers: answerList(b(true), b(true), b(false))},
		{Kind: KindCacheEntry, Task: "numberOfPets", Args: key(str("Acme")), Answers: answerList(i(3), i(-12), i(math.MaxInt64))},
		{Kind: KindCacheEntry, Task: "rateImage", Args: key(i(42)), Answers: answerList(f(4.5), f(math.Copysign(0, -1)), f(math.Inf(1)), f(math.Inf(-1)), f(1e-300))},
		{Kind: KindCacheEntry, Task: "findName", Args: key(str("a"), i(1)), Answers: answerList(str("Grace"), str(""), str("multi word | with ; separators"))},
		{Kind: KindCacheEntry, Task: "describe", Args: key(i(9)), Answers: answerList(str(strings.Repeat("a long answer, ", 20)), b(true))},
		{Kind: KindCacheEntry, Task: "findCEO", Args: key(str("Globex")), Answers: answerList(ceo, relation.Null, relation.NewImage("ceo.png"), relation.NewList())},
		{Kind: KindCacheEntry, Task: "isCat", Args: key(relation.NewImage("empty.png")), Answers: answerList()},
		{Kind: KindSelectivity, Task: "isCeleb", Side: "right", Pass: true},
		{Kind: KindLatency, Task: "isCat", X: 4.25},
		{Kind: KindAgreement, Task: "isCat", X: 0.875},
		{Kind: KindModelExample, Task: "isCat", Args: key(relation.NewImage("cat1.png")), Pass: true},
		{Kind: KindReputation, Worker: "w1", Pass: false},
		{Kind: KindSelectivitySum, Task: "isCeleb", Side: "left", X: 3, Y: 8},
		{Kind: KindLatencySum, Task: "isCat", X: 5.5, N: 12},
		{Kind: KindAgreementSum, Task: "isCat", X: 0.75, N: 9},
		{Kind: KindReputationSum, Worker: "w2", N: 40, M: 31},
		{Kind: KindRankPair, Task: "orderSq", X: 0.8125, N: 6},
		{Kind: KindRankPairSum, Task: "orderSq", X: 0.9, N: 14},
		{Kind: KindBackendObs, Task: "sim", Side: "filter", X: 2.5, Y: 0.9, M: 3},
		{Kind: KindBackendSum, Task: "llm", Side: "join", X: 0.25, Y: 0.7, M: 1, N: 20},
		{Kind: KindWorkerQuality, Worker: "w3", X: 0.66, N: 5},
		{Kind: KindWorkerQualitySum, Worker: "w3", X: 0.7, N: 25},
	}
}

// TestWALBytesUnchanged pins the segment bytes a fresh store writes for
// a fixed record set, so a change to how records are held in memory
// cannot change the files on disk. When the fixture is missing the
// test writes it and fails.
func TestWALBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := walBytesRecords()
	appendAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v err = %v, want one", segs, err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segFileName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(frameOffsets(t, got)); n != len(recs) {
		t.Fatalf("segment holds %d frames, want %d", n, len(recs))
	}

	raw, err := os.ReadFile(walBytesFixture)
	if errors.Is(err, os.ErrNotExist) {
		var b strings.Builder
		for rest := got; len(rest) > 0; {
			n := min(32, len(rest))
			b.WriteString(hex.EncodeToString(rest[:n]))
			b.WriteByte('\n')
			rest = rest[n:]
		}
		if err := os.WriteFile(walBytesFixture, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it, then rerun", walBytesFixture)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.ReplaceAll(string(raw), "\n", ""))
	if err != nil {
		t.Fatalf("%s: %v", walBytesFixture, err)
	}
	if string(got) == string(want) {
		return
	}
	gotOffs, wantOffs := frameOffsets(t, got), frameOffsets(t, want)
	for k := range min(len(gotOffs), len(wantOffs)) {
		g, w := frameAt(got, gotOffs, k), frameAt(want, wantOffs, k)
		if string(g) != string(w) {
			t.Fatalf("record %d (kind %d) differs from the fixture:\n got  %x\n want %x", k, recs[k].Kind, g, w)
		}
	}
	t.Fatalf("segment is %d bytes in %d frames, the fixture %d bytes in %d frames", len(got), len(gotOffs), len(want), len(wantOffs))
}

// frameAt returns frame k of a segment whose frames start at offs.
func frameAt(data []byte, offs []int, k int) []byte {
	if k+1 < len(offs) {
		return data[offs[k]:offs[k+1]]
	}
	return data[offs[k]:]
}
