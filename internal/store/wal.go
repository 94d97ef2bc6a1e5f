package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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

// replayBufBytes sizes the one buffered reader replay streams every
// store file through.
const replayBufBytes = 64 << 10

// replayer streams store files through one buffered reader and one
// frame buffer, both reused across files, so replay never holds a whole
// file in memory. Names are interned through in, so a replay holds one
// copy of each.
type replayer struct {
	in   interner
	r    *bufio.Reader
	buf  []byte
	left int64 // bytes of the current file not yet read
	err  error // the first file that could not be opened or read
}

// fail records err as the first read failure and returns false.
func (rp *replayer) fail(err error) bool {
	if rp.err == nil {
		rp.err = err
	}
	return false
}

// open opens path and points the shared reader at its start.
func (rp *replayer) open(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	rp.left = fi.Size()
	if rp.r == nil {
		rp.r = bufio.NewReaderSize(f, replayBufBytes)
	} else {
		rp.r.Reset(f)
	}
	return f, nil
}

// read fills p from the current file. It reports false when the file
// ends first, which is a torn file, or on a read error, which it also
// records.
func (rp *replayer) read(p []byte) bool {
	n, err := io.ReadFull(rp.r, p)
	rp.left -= int64(n)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return rp.fail(err)
	}
	return err == nil
}

// frames applies every valid frame up to the end of the current file,
// stopping at the first torn or corrupt one. It reports whether the
// file ended cleanly.
func (rp *replayer) frames(apply func(Record)) (clean bool) {
	var hdr [frameHdr]byte
	for rp.left > 0 {
		if !rp.read(hdr[:]) {
			return false // torn header
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordBytes || int64(n) > rp.left {
			return false // torn or corrupt length
		}
		if cap(rp.buf) < int(n) {
			rp.buf = make([]byte, n)
		}
		payload := rp.buf[:n]
		if !rp.read(payload) || crc32.Checksum(payload, crcTable) != crc {
			return false
		}
		rec, err := decodeRecord(payload, rp.in)
		if err != nil {
			return false
		}
		apply(rec)
	}
	return true
}

// segment folds one segment's valid prefix into apply. An empty or
// headerless file applies nothing; clean reports whether the file ended
// without corruption and could be read.
func (rp *replayer) segment(path string, apply func(Record)) (clean bool) {
	f, err := rp.open(path)
	if err != nil {
		return rp.fail(err)
	}
	defer f.Close()
	if rp.left == 0 {
		return true // a crash before the header was written loses nothing
	}
	var magic [len(segMagic)]byte
	if !rp.read(magic[:]) || string(magic[:]) != segMagic {
		return false
	}
	return rp.frames(apply)
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

// snapshot folds the snapshot's valid prefix into apply and returns the
// segment sequence it covers. A missing snapshot is an empty one.
func (rp *replayer) snapshot(path string, apply func(Record)) (coveredSeq uint64, clean bool) {
	f, err := rp.open(path)
	if os.IsNotExist(err) {
		return 0, true
	}
	if err != nil {
		return 0, rp.fail(err)
	}
	defer f.Close()
	var hdr [len(snapMagic) + 8]byte
	if !rp.read(hdr[:]) || string(hdr[:len(snapMagic)]) != snapMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(hdr[len(snapMagic):]), rp.frames(apply)
}
