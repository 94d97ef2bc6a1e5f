package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/relation"
)

// FuzzWALReplay feeds arbitrary bytes to the store as a WAL segment (and
// again as a snapshot) and opens the store over them. Replay must never
// panic, must apply at most the longest valid record prefix, and must be
// deterministic — replaying the same bytes twice yields bit-identical
// state, which is what rules out double-apply on corrupted, truncated or
// bit-flipped logs.
func FuzzWALReplay(f *testing.F) {
	// Seed with a well-formed segment plus mutations replay must survive.
	var valid []byte
	valid = append(valid, segMagic...)
	for _, rec := range []Record{
		{Kind: KindCacheEntry, Task: "isCat", Args: "k", Answers: cache.EncodeAnswers([]relation.Value{relation.NewBool(true)})},
		{Kind: KindSelectivity, Task: "isCeleb", Side: "right", Pass: true},
		{Kind: KindLatency, Task: "isCat", X: 3.25},
		{Kind: KindModelExample, Task: "isCat", Args: string(relation.NewString("x").Encode(nil)), Pass: false},
		{Kind: KindReputation, Worker: "w", Pass: true},
		{Kind: KindReputationSum, Worker: "w", N: 10, M: 4},
	} {
		valid = appendRecordFrame(valid, rec)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])        // torn tail
	f.Add(valid[:len(segMagic)])       // header only
	f.Add([]byte{})                    // empty file
	f.Add([]byte("QKWAL01\n\x00\x00")) // torn frame header
	f.Add([]byte("garbage not a wal")) // bad magic
	flipped := append([]byte(nil), valid...)
	flipped[len(valid)/2] ^= 0x40
	f.Add(flipped) // bit flip mid-file

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segFileName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Also drop the same bytes in as a snapshot: its replay path must
		// be equally bulletproof.
		if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s1, err := Open(dir)
		if err != nil {
			// Open only errors on filesystem problems, never on content.
			t.Fatalf("open: %v", err)
		}
		var fp1 uint64
		var n1 int64
		s1.View(func(st *State) { fp1, n1 = st.Fingerprint(), st.Records() })
		s1.Close()

		// Reopening over the same inputs must reproduce the state
		// exactly: every valid record applied once, nothing twice.
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, segFileName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, snapName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir2)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		var fp2 uint64
		var n2 int64
		s2.View(func(st *State) { fp2, n2 = st.Fingerprint(), st.Records() })
		s2.Close()
		if fp1 != fp2 || n1 != n2 {
			t.Fatalf("replay nondeterministic: %d records (%016x) vs %d (%016x)", n1, fp1, n2, fp2)
		}
	})
}
