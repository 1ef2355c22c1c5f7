// Journal: the queue's write-ahead log. One file, append-only, fsynced per
// record; a job is acknowledged to the client only after its enqueue record's
// fsync returns, so every acked job survives a crash at any instant.
//
// Layout:
//
//	header   magic "BQWL" + version uint32
//	records  recLen uint32 | crc32 uint32 (IEEE, over payload) | payload
//
// Each payload carries a full job image (seq, state, tenant, keys, attempts,
// outcome fields), so any record can be replayed standalone — compaction
// rewrites the file as one snapshot record per job it keeps.
//
// Recovery discipline: records are replayed in order until the first record
// that fails its length, CRC or decode check. Because appends are sequential
// and fsynced, a bad record with nothing intact after it is the torn tail of
// an interrupted append: it was by construction never acknowledged, so the
// file is truncated at the last good offset and the loss is counted
// (TornTails). A bad record followed by any intact record is mid-log
// corruption (bit rot, a foreign writer): the records after it were
// acknowledged, so the journal is left byte-for-byte untouched and opening
// fails with ErrJournalCorrupt instead of silently dropping them. The
// faultinject points
// JournalAppendWrite/JournalAppendFsync simulate crashes at the two syscall
// boundaries of an append; compaction goes through atomicio.WriteFile and
// inherits its CacheWriteTemp/CacheWriteFsync/CacheWriteRename crash points.
package planqueue

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"bootes/internal/faultinject"
	"bootes/internal/plancache/atomicio"
)

var journalMagic = [4]byte{'B', 'Q', 'W', 'L'}

// journalVersion is the on-disk journal format version.
const journalVersion = 1

// maxRecLen bounds a record payload so a corrupt length field cannot demand
// an unbounded allocation during replay.
const maxRecLen = 1 << 20

// ErrJournalCorrupt is returned when opening a journal whose first bad record
// is followed by an intact one. The file is left untouched for inspection.
var ErrJournalCorrupt = errors.New("planqueue: journal corrupt before its tail")

// ErrJournalCrash is returned when a faultinject point simulates a crash
// mid-append. The file is left exactly as the crash would leave it.
var ErrJournalCrash = errors.New("planqueue: injected journal crash")

// record types. Every record carries a full job image; the type records which
// transition wrote it (useful in postmortems), not extra schema.
const (
	recEnqueue = uint8(1) // job acknowledged
	recDone    = uint8(2) // job completed (possibly degraded, possibly via cache)
	recFailed  = uint8(3) // attempt failed, retry scheduled
	recDead    = uint8(4) // poisoned: retries exhausted, parked
	recSnap    = uint8(5) // compaction snapshot of a live or retained job
)

// rec is the wire image of a job. It mirrors Job but with fixed-width types.
type rec struct {
	typ       uint8
	seq       uint64
	state     uint8 // stateCode(...)
	flags     uint8 // bit0 reordered, bit1 degraded, bit2 cached
	k         uint16
	attempts  uint16
	enqueuedN int64 // unix nanos
	tenant    string
	key       string
	optKey    string
	reason    string
}

const (
	flagReordered = 1 << 0
	flagDegraded  = 1 << 1
	flagCached    = 1 << 2
)

func encodeRec(r *rec) ([]byte, error) {
	for _, s := range []string{r.tenant, r.key, r.optKey, r.reason} {
		if len(s) > math.MaxUint16 {
			return nil, fmt.Errorf("planqueue: record string field too long (%d bytes)", len(s))
		}
	}
	var p bytes.Buffer
	p.WriteByte(journalVersion)
	p.WriteByte(r.typ)
	_ = binary.Write(&p, binary.LittleEndian, r.seq)
	p.WriteByte(r.state)
	p.WriteByte(r.flags)
	_ = binary.Write(&p, binary.LittleEndian, r.k)
	_ = binary.Write(&p, binary.LittleEndian, r.attempts)
	_ = binary.Write(&p, binary.LittleEndian, r.enqueuedN)
	for _, s := range []string{r.tenant, r.key, r.optKey, r.reason} {
		_ = binary.Write(&p, binary.LittleEndian, uint16(len(s)))
		p.WriteString(s)
	}
	if p.Len() > maxRecLen {
		return nil, fmt.Errorf("planqueue: record %d bytes over limit", p.Len())
	}
	out := bytes.NewBuffer(make([]byte, 0, 8+p.Len()))
	_ = binary.Write(out, binary.LittleEndian, uint32(p.Len()))
	_ = binary.Write(out, binary.LittleEndian, crc32.ChecksumIEEE(p.Bytes()))
	out.Write(p.Bytes())
	return out.Bytes(), nil
}

// errRecCorrupt marks an undecodable record.
var errRecCorrupt = errors.New("planqueue: corrupt record")

func decodeRec(data []byte) (*rec, error) {
	r := bytes.NewReader(data)
	var version, typ uint8
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: version: %v", errRecCorrupt, err)
	}
	if version != journalVersion {
		return nil, fmt.Errorf("%w: unsupported record version %d", errRecCorrupt, version)
	}
	if err := binary.Read(r, binary.LittleEndian, &typ); err != nil {
		return nil, fmt.Errorf("%w: type: %v", errRecCorrupt, err)
	}
	if typ < recEnqueue || typ > recSnap {
		return nil, fmt.Errorf("%w: unknown record type %d", errRecCorrupt, typ)
	}
	out := &rec{typ: typ}
	if err := binary.Read(r, binary.LittleEndian, &out.seq); err != nil {
		return nil, fmt.Errorf("%w: seq: %v", errRecCorrupt, err)
	}
	for _, f := range []any{&out.state, &out.flags, &out.k, &out.attempts, &out.enqueuedN} {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("%w: fixed fields: %v", errRecCorrupt, err)
		}
	}
	for _, dst := range []*string{&out.tenant, &out.key, &out.optKey, &out.reason} {
		var n uint16
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("%w: string length: %v", errRecCorrupt, err)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("%w: string body: %v", errRecCorrupt, err)
		}
		*dst = string(b)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errRecCorrupt, r.Len())
	}
	return out, nil
}

// journal is the append handle over the WAL file. Not concurrency-safe on its
// own; the Queue serializes appends under its mutex.
type journal struct {
	path string
	f    *os.File
	size int64
	// broken latches when a failed append could not be repaired: the file may
	// hold torn bytes mid-stream, so further appends would write records that
	// replay could never reach. Every append fails fast until restart.
	broken bool
}

// errJournalBroken reports appends against a journal whose tail could not be
// restored after a failed write.
var errJournalBroken = errors.New("planqueue: journal broken (unrepaired torn tail)")

// readFrame parses the record framed at the start of data: a plausible
// length, a matching CRC and a decodable payload. n is the frame size.
func readFrame(data []byte) (r *rec, n int64, ok bool) {
	if len(data) < 8 {
		return nil, 0, false
	}
	size := binary.LittleEndian.Uint32(data)
	if size == 0 || size > maxRecLen || int64(len(data)-8) < int64(size) {
		return nil, 0, false
	}
	payload := data[8 : 8+size]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, false
	}
	r, err := decodeRec(payload)
	if err != nil {
		return nil, 0, false
	}
	return r, 8 + int64(size), true
}

// openJournal opens (or creates) the journal at path, replays every intact
// record into replay (in order), truncates a torn tail, and leaves the file
// positioned for appends. torn reports whether a tail was truncated. A bad
// record with an intact record anywhere after it is not a torn tail: nothing
// is replayed, the file is not modified, and the error wraps
// ErrJournalCorrupt.
func openJournal(path string, replay func(*rec)) (j *journal, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, false, err
	}
	good := int64(0)
	if len(data) == 0 {
		// Fresh journal: write and sync the header so every later append is
		// a pure record write.
		var hdr bytes.Buffer
		hdr.Write(journalMagic[:])
		_ = binary.Write(&hdr, binary.LittleEndian, uint32(journalVersion))
		if _, err := f.Write(hdr.Bytes()); err != nil {
			f.Close()
			return nil, false, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, false, err
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, false, err
		}
		good = int64(hdr.Len())
		return &journal{path: path, f: f, size: good}, false, nil
	}
	if len(data) < 8 || !bytes.Equal(data[:4], journalMagic[:]) ||
		binary.LittleEndian.Uint32(data[4:]) != journalVersion {
		f.Close()
		return nil, false, fmt.Errorf("planqueue: %s is not a journal (bad header)", path)
	}
	var recs []*rec
	good = 8
	for good < int64(len(data)) {
		r, n, ok := readFrame(data[good:])
		if !ok {
			break
		}
		recs = append(recs, r)
		good += n
	}
	for off := good + 1; off < int64(len(data)); off++ {
		if _, _, ok := readFrame(data[off:]); ok {
			f.Close()
			return nil, false, fmt.Errorf("%w: %s: bad record at offset %d, intact record at offset %d",
				ErrJournalCorrupt, path, good, off)
		}
	}
	for _, r := range recs {
		replay(r)
	}
	if good < int64(len(data)) {
		torn = true
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, false, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, false, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, false, err
	}
	return &journal{path: path, f: f, size: good}, torn, nil
}

// append durably adds one record: encode → write → fsync. The record is
// acknowledged (nil error) only after the fsync returns.
//
// Failure discipline: sequential replay stops at the first bad record, so a
// torn partial write mid-file would hide every later record. A real I/O error
// therefore repairs the tail (truncate back to the pre-append offset) before
// returning; if even that fails the journal latches broken and refuses all
// further appends. An injected crash (ErrJournalCrash) deliberately leaves
// the file exactly as a real crash would — torn — and the caller must treat
// the process as dead (the Queue wedges itself closed).
func (j *journal) append(r *rec) error {
	if j.broken {
		return errJournalBroken
	}
	data, err := encodeRec(r)
	if err != nil {
		return err
	}
	if faultinject.Fire(faultinject.JournalAppendWrite) {
		// Crash mid-write: half the record reaches the file, unsynced. A
		// real crash writes nothing more, so neither may this process: a
		// whole record after the torn one would read as mid-log corruption.
		_, _ = j.f.Write(data[:len(data)/2])
		j.broken = true
		return ErrJournalCrash
	}
	pre := j.size
	n, err := j.f.Write(data)
	j.size += int64(n)
	if err != nil {
		j.repair(pre)
		return err
	}
	if faultinject.Fire(faultinject.JournalAppendFsync) {
		// Crash after write, before fsync: the record's durability is
		// undecided — replay must be correct whether or not it survives.
		return ErrJournalCrash
	}
	if err := j.f.Sync(); err != nil {
		j.repair(pre)
		return err
	}
	return nil
}

// repair restores the pre-append tail after a failed write so the journal
// stays appendable; on failure the journal latches broken.
func (j *journal) repair(pre int64) {
	if j.f.Truncate(pre) != nil {
		j.broken = true
		return
	}
	if _, err := j.f.Seek(pre, io.SeekStart); err != nil {
		j.broken = true
		return
	}
	_ = j.f.Sync()
	j.size = pre
}

// rewrite compacts the journal: the full replacement content (header plus
// one snapshot record per kept job) is published through atomicio's
// temp+fsync+rename protocol, then the append handle is reopened on the new
// file. On any error the old journal (and the old handle) stay in service.
func (j *journal) rewrite(recs []*rec) error {
	var buf bytes.Buffer
	buf.Write(journalMagic[:])
	_ = binary.Write(&buf, binary.LittleEndian, uint32(journalVersion))
	for _, r := range recs {
		data, err := encodeRec(r)
		if err != nil {
			return err
		}
		buf.Write(data)
	}
	if err := atomicio.WriteFileBytes(j.path, buf.Bytes()); err != nil {
		return err
	}
	// The old handle points at the unlinked inode; swap to the new file.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	j.size = int64(buf.Len())
	return nil
}

func (j *journal) close() error { return j.f.Close() }

// syncDir mirrors atomicio's directory fsync tolerance: filesystems that
// reject directory fsync only widen the durability window.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}
