package store

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relation"
)

// snapshotBytesFixture holds the snapshot bytes TestSnapshotBytesUnchanged
// expects, as hex, 32 bytes to a line.
const snapshotBytesFixture = "testdata/snapshot_bytes.hex"

// snapshotSegments splits a fixed record set over three small segment
// files. The first holds walBytesRecords, which covers every record
// kind; the later two repeat its cache keys with other answers (the
// latest answer wins, the first-seen order stays), add observations to
// its aggregates, and add model examples, one of whose arguments do not
// decode.
func snapshotSegments() [][]Record {
	str, b := relation.NewString, relation.NewBool
	img := func(name string) string { return string(relation.NewImage(name).Encode(nil)) }
	return [][]Record{
		walBytesRecords(),
		{
			{Kind: KindCacheEntry, Task: "isCat", Args: img("cat1.png"), Answers: answerList(b(false))},
			{Kind: KindCacheEntry, Task: "isCat", Args: img("cat2.png"), Answers: answerList(b(true), b(true))},
			{Kind: KindSelectivity, Task: "isCeleb", Side: "left", Pass: true},
			{Kind: KindSelectivity, Task: "isCat", Pass: false},
			{Kind: KindLatency, Task: "isCat", X: 1.5},
			{Kind: KindModelExample, Task: "isCat", Args: img("cat2.png"), Pass: true},
			{Kind: KindModelExample, Task: "isCat", Args: "\xff", Pass: true},
			{Kind: KindReputation, Worker: "w2", Pass: true},
			{Kind: KindBackendObs, Task: "sim", Side: "filter", X: 3, Y: 0.8, M: 3},
		},
		{
			{Kind: KindCacheEntry, Task: "findName", Args: img("cat2.png"), Answers: answerList(str("Tom"))},
			{Kind: KindCacheEntry, Task: "isCat", Args: img("empty.png"), Answers: answerList(b(true))},
			{Kind: KindAgreement, Task: "isCat", X: 0.5},
			{Kind: KindRankPair, Task: "orderSq", X: 0.7, N: 3},
			{Kind: KindWorkerQuality, Worker: "w1", X: 0.9, N: 4},
			{Kind: KindReputationSum, Worker: "w1", N: 7, M: 5},
		},
	}
}

// TestSnapshotBytesUnchanged pins the snapshot bytes compaction writes:
// a store opened over three small segments takes live appends that
// repeat their cache keys, compacts, takes more appends and compacts
// again, so the second snapshot folds the first with a segment. A
// change to how the store builds a snapshot cannot change its bytes.
// When the fixture is missing the test writes it and fails.
func TestSnapshotBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	for i, seg := range snapshotSegments() {
		data := []byte(segMagic)
		for _, rec := range seg {
			data = appendRecordFrame(data, rec)
		}
		if err := os.WriteFile(filepath.Join(dir, segFileName(uint64(i+1))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := func(name string) string { return string(relation.NewImage(name).Encode(nil)) }
	rounds := [][]Record{
		{
			{Kind: KindCacheEntry, Task: "isCat", Args: img("cat1.png"), Answers: answerList(relation.NewBool(true))},
			{Kind: KindCacheEntry, Task: "isCat", Args: img("cat3.png"), Answers: answerList(relation.NewBool(false))},
			{Kind: KindSelectivity, Task: "isCat", Pass: true},
			{Kind: KindModelExample, Task: "isCat", Args: img("cat3.png"), Pass: false},
		},
		{
			{Kind: KindCacheEntry, Task: "isCat", Args: img("cat2.png"), Answers: answerList(relation.NewBool(false))},
			{Kind: KindLatency, Task: "isCat", X: 2},
			{Kind: KindReputation, Worker: "w3", Pass: false},
			{Kind: KindBackendObs, Task: "llm", Side: "join", X: 0.5, Y: 0.6, M: 1},
		},
	}
	var written int64
	for _, round := range rounds {
		for _, rec := range round {
			s.Append(rec)
		}
		written += int64(len(round))
		waitWritten(t, s, written)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(snapshotBytesFixture)
	if errors.Is(err, os.ErrNotExist) {
		var b strings.Builder
		for rest := got; len(rest) > 0; {
			n := min(32, len(rest))
			b.WriteString(hex.EncodeToString(rest[:n]))
			b.WriteByte('\n')
			rest = rest[n:]
		}
		if err := os.WriteFile(snapshotBytesFixture, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it, then rerun", snapshotBytesFixture)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.ReplaceAll(string(raw), "\n", ""))
	if err != nil {
		t.Fatalf("%s: %v", snapshotBytesFixture, err)
	}
	if string(got) == string(want) {
		return
	}
	// Both files start with the magic and the covered segment number;
	// compare frame by frame after them.
	hdr := len(snapMagic) + 8
	if len(got) < hdr || len(want) < hdr || string(got[:hdr]) != string(want[:hdr]) {
		t.Fatalf("snapshot header differs from the fixture:\n got  %x\n want %x", got[:min(hdr, len(got))], want[:min(hdr, len(want))])
	}
	gotFrames, wantFrames := snapshotFrames(got[hdr:]), snapshotFrames(want[hdr:])
	for k := range min(len(gotFrames), len(wantFrames)) {
		if string(gotFrames[k]) != string(wantFrames[k]) {
			t.Fatalf("snapshot record %d differs from the fixture:\n got  %x\n want %x", k, gotFrames[k], wantFrames[k])
		}
	}
	t.Fatalf("snapshot is %d bytes in %d frames, the fixture %d bytes in %d frames", len(got), len(gotFrames), len(want), len(wantFrames))
}

// snapshotFrames splits a run of frames into its frames.
func snapshotFrames(data []byte) [][]byte {
	var out [][]byte
	for len(data) >= frameHdr {
		n := frameHdr + int(uint32(data[0])|uint32(data[1])<<8|uint32(data[2])<<16|uint32(data[3])<<24)
		if n > len(data) {
			break
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}
