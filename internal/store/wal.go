package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout. A store directory holds one snapshot plus numbered WAL
// segments:
//
//	snapshot.qks     QKSNAP1\n + coveredSeq (8B LE) + frames
//	wal-00000007.log QKWAL01\n + frames
//
// Every frame is [len uint32 LE][crc32c uint32 LE][payload]; the payload
// is one Record (kind byte first). Replay walks frames in order and
// stops at the first frame whose header, length, CRC or payload decode
// fails — a torn tail write therefore loses at most the torn record,
// never anything before it. The snapshot's coveredSeq says which
// segments its aggregates already include, so a crash between snapshot
// rename and segment deletion can never double-apply a record.
const (
	segMagic  = "QKWAL01\n"
	snapMagic = "QKSNAP1\n"
	frameHdr  = 8
	segPrefix = "wal-"
	segSuffix = ".log"
	snapName  = "snapshot.qks"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecordFrame appends rec's payload to dst wrapped in a
// length+CRC frame, encoding in place behind the header it then fills.
func appendRecordFrame(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = rec.encode(append(dst, make([]byte, frameHdr)...))
	payload := dst[start+frameHdr:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// replayFrames applies every valid leading frame of data, stopping at
// the first torn or corrupt one. Records are decoded straight from data
// with names interned through in. It returns how many records were
// applied and whether the whole input was consumed cleanly.
func replayFrames(data []byte, in interner, apply func(Record)) (applied int, clean bool) {
	for len(data) > 0 {
		if len(data) < frameHdr {
			return applied, false // torn header
		}
		n := binary.LittleEndian.Uint32(data[:4])
		crc := binary.LittleEndian.Uint32(data[4:8])
		if n == 0 || n > maxRecordBytes || uint64(n) > uint64(len(data)-frameHdr) {
			return applied, false // torn or corrupt length
		}
		payload := data[frameHdr : frameHdr+int(n)]
		if crc32.Checksum(payload, crcTable) != crc {
			return applied, false
		}
		rec, err := decodeRecord(payload, in)
		if err != nil {
			return applied, false
		}
		apply(rec)
		applied++
		data = data[frameHdr+int(n):]
	}
	return applied, true
}

// replaySegmentFile folds one segment's valid prefix into apply. A
// missing, empty or headerless file applies nothing; clean reports
// whether the file ended without corruption.
func replaySegmentFile(path string, in interner, apply func(Record)) (applied int, clean bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	if len(data) == 0 {
		return 0, true // a crash before the header was written loses nothing
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, false
	}
	return replayFrames(data[len(segMagic):], in, apply)
}

// segFileName formats a segment's file name from its sequence number.
func segFileName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		seq, perr := strconv.ParseUint(mid, 10, 64)
		if perr != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// encodeRecordsFile renders a full snapshot-format file: magic,
// coveredSeq, then one frame per record.
func encodeRecordsFile(coveredSeq uint64, recs []Record) []byte {
	buf := append([]byte(nil), snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, coveredSeq)
	for _, rec := range recs {
		buf = appendRecordFrame(buf, rec)
	}
	return buf
}

// writeFileAtomic writes data to path via a temp file + rename, syncing
// the file first so the rename publishes complete contents.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// replaySnapshotFile folds the snapshot's valid prefix into apply and
// returns the segment sequence it covers. A missing snapshot is an
// empty one.
func replaySnapshotFile(path string, in interner, apply func(Record)) (coveredSeq uint64, applied int, clean bool) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0, true
	}
	if err != nil {
		return 0, 0, false
	}
	hdr := len(snapMagic) + 8
	if len(data) < hdr || string(data[:len(snapMagic)]) != snapMagic {
		return 0, 0, false
	}
	coveredSeq = binary.LittleEndian.Uint64(data[len(snapMagic) : len(snapMagic)+8])
	applied, clean = replayFrames(data[hdr:], in, apply)
	return coveredSeq, applied, clean
}

// WriteRecordsFile writes records to a standalone snapshot-format file
// (atomic via rename) — the format Engine.SaveCache uses.
func WriteRecordsFile(path string, recs []Record) error {
	return writeFileAtomic(path, encodeRecordsFile(0, recs))
}

// ReadRecordsFile reads a file written by WriteRecordsFile (or a store
// snapshot). Unlike WAL replay it is strict: any torn or corrupt frame
// is an error, because standalone files are written atomically and a
// bad one should be surfaced, not silently truncated.
func ReadRecordsFile(path string) ([]Record, error) {
	var recs []Record
	_, _, clean := replaySnapshotFile(path, interner{}, func(r Record) { recs = append(recs, r) })
	if !clean {
		return nil, fmt.Errorf("store: %s: corrupt records file", filepath.Base(path))
	}
	return recs, nil
}
