package planqueue

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bootes/internal/faultinject"
)

func sampleRec(seq uint64) *rec {
	return &rec{
		typ:       recEnqueue,
		seq:       seq,
		state:     stateCode(StateQueued),
		flags:     flagReordered,
		k:         8,
		attempts:  1,
		enqueuedN: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC).UnixNano(),
		tenant:    "acme",
		key:       "deadbeefdeadbeef",
		optKey:    "opts-v1",
		reason:    "",
	}
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRec(42)
	want.reason = "eigensolve did not converge"
	data, err := encodeRec(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRec(data[8:]) // skip len+crc framing
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := encodeRec(sampleRec(1))
	if err != nil {
		t.Fatal(err)
	}
	payload := data[8:]
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xFF
		if r, err := decodeRec(mut); err == nil {
			// Flipping a bit inside a string body changes content without
			// breaking structure; the CRC layer catches those. Structural
			// fields must fail outright.
			if r.typ != sampleRec(1).typ && i < 2 {
				t.Fatalf("byte %d: corrupt structural field decoded silently", i)
			}
		}
	}
}

func journalRecs(t *testing.T, path string) []*rec {
	t.Helper()
	var recs []*rec
	j, _, err := openJournal(path, func(r *rec) { recs = append(recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	return recs
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, torn, err := openJournal(path, func(*rec) { t.Fatal("fresh journal replayed records") })
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("fresh journal reported torn")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := j.append(sampleRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	recs := journalRecs(t, path)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d (order must be append order)", i, r.seq, i+1)
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := openJournal(path, func(*rec) {})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.append(sampleRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := j.size
	j.close()
	// Simulate a torn append: garbage bytes that parse as neither a full
	// frame nor a valid CRC.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var n int
	j2, torn, err := openJournal(path, func(*rec) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want the 3 intact ones", n)
	}
	if j2.size != goodSize {
		t.Fatalf("journal size %d after truncation, want %d", j2.size, goodSize)
	}
	// The truncated journal must accept appends again.
	if err := j2.append(sampleRec(4)); err != nil {
		t.Fatal(err)
	}
	if got := len(journalRecs(t, path)); got != 4 {
		t.Fatalf("after post-truncation append: %d records, want 4", got)
	}
}

// TestJournalCrashMidWrite drives the JournalAppendWrite injection point:
// the append fails with a torn half-record on disk, and recovery truncates it
// without losing any previously acked record.
func TestJournalCrashMidWrite(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := openJournal(path, func(*rec) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.JournalAppendWrite); err != nil {
		t.Fatal(err)
	}
	if err := j.append(sampleRec(2)); err != ErrJournalCrash {
		t.Fatalf("append under injected crash returned %v, want ErrJournalCrash", err)
	}
	// A crashed process writes nothing more; a whole record after the torn
	// one would make the next open see mid-log corruption.
	if err := j.append(sampleRec(3)); !errors.Is(err, errJournalBroken) {
		t.Fatalf("append after injected crash returned %v, want errJournalBroken", err)
	}
	j.close()

	var seqs []uint64
	j2, torn, err := openJournal(path, func(r *rec) { seqs = append(seqs, r.seq) })
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if !torn {
		t.Fatal("crash mid-write left no torn tail to truncate")
	}
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("recovered seqs %v, want [1] (acked record only)", seqs)
	}
}

// TestJournalCrashBeforeFsync drives JournalAppendFsync: the record's bytes
// are fully written but unsynced, so it may or may not survive — both
// outcomes must recover cleanly and keep every earlier acked record.
func TestJournalCrashBeforeFsync(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := openJournal(path, func(*rec) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.JournalAppendFsync); err != nil {
		t.Fatal(err)
	}
	if err := j.append(sampleRec(2)); err != ErrJournalCrash {
		t.Fatalf("append under injected crash returned %v, want ErrJournalCrash", err)
	}
	j.close()

	var seqs []uint64
	j2, _, err := openJournal(path, func(r *rec) { seqs = append(seqs, r.seq) })
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(seqs) == 0 || seqs[0] != 1 {
		t.Fatalf("recovered seqs %v: acked record 1 must survive", seqs)
	}
	if len(seqs) > 2 {
		t.Fatalf("recovered seqs %v: at most records 1 and 2 can exist", seqs)
	}
}

func TestJournalRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := openJournal(path, func(*rec) {})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 100; seq++ {
		if err := j.append(sampleRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	big := j.size
	snap := sampleRec(100)
	snap.typ = recSnap
	if err := j.rewrite([]*rec{snap}); err != nil {
		t.Fatal(err)
	}
	if j.size >= big {
		t.Fatalf("rewrite did not shrink the journal: %d → %d", big, j.size)
	}
	// The reopened handle must stay appendable on the *new* file.
	if err := j.append(sampleRec(101)); err != nil {
		t.Fatal(err)
	}
	j.close()
	recs := journalRecs(t, path)
	if len(recs) != 2 || recs[0].seq != 100 || recs[1].seq != 101 {
		t.Fatalf("after rewrite+append journal holds %d records (want snap 100 then 101)", len(recs))
	}
}

// frameOffsets returns the start offset of every record in a journal image.
func frameOffsets(t *testing.T, data []byte) []int64 {
	t.Helper()
	var offs []int64
	for off := int64(8); off < int64(len(data)); {
		_, n, ok := readFrame(data[off:])
		if !ok {
			t.Fatalf("journal image has a bad record at offset %d", off)
		}
		offs = append(offs, off)
		off += n
	}
	return offs
}

// TestOpenRefusesMidLogCorruption: one flipped bit in the third of ten
// acknowledged enqueue records must fail Open loudly and leave the journal
// byte-for-byte as it was, because the seven records after it were acked.
// The same flip in the last record is indistinguishable from a torn tail and
// still truncates.
func TestOpenRefusesMidLogCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rec     int
		corrupt bool
	}{{"record-3", 2, true}, {"last-record", 9, false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, newRunRecorder(nil))
			q, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for i := 0; i < 10; i++ {
				jb, _, err := q.Enqueue("acme", testMatrix(t, int64(100+i)), "")
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, jb.ID)
			}
			q.Kill()

			path := filepath.Join(cfg.Dir, "journal.wal")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			offs := frameOffsets(t, data)
			if len(offs) != 10 {
				t.Fatalf("journal holds %d records, want 10", len(offs))
			}
			data[offs[tc.rec]+8+3] ^= 0x10 // a bit of the record's seq
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			q2, err := Open(cfg)
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if tc.corrupt {
				if !errors.Is(err, ErrJournalCorrupt) {
					t.Fatalf("Open = %v, want ErrJournalCorrupt", err)
				}
				if !bytes.Equal(after, data) {
					t.Fatalf("refused journal changed: %d bytes before, %d after", len(data), len(after))
				}
				return
			}
			if err != nil {
				t.Fatalf("Open with a torn last record: %v", err)
			}
			defer q2.Kill()
			if q2.Stats().TornTails != 1 {
				t.Fatalf("stats = %+v, want TornTails=1", q2.Stats())
			}
			if int64(len(after)) != offs[9] {
				t.Fatalf("journal is %d bytes after recovery, want %d (cut at the last record)", len(after), offs[9])
			}
			for i, id := range ids[:9] {
				if jb, ok := q2.Get(id); !ok || jb.State != StateQueued {
					t.Fatalf("job %d after recovery = (%+v, %v), want queued", i, jb, ok)
				}
			}
		})
	}
}

// FuzzOpenJournal feeds arbitrary bytes to journal recovery. Opening must
// never panic. A refused open leaves the file untouched. A successful open
// leaves a prefix of the input (a fresh header for an empty input), reports
// torn exactly when it cut something, and never cuts before an intact record.
func FuzzOpenJournal(f *testing.F) {
	hdr := binary.LittleEndian.AppendUint32(append([]byte(nil), journalMagic[:]...), journalVersion)
	valid := append([]byte(nil), hdr...)
	var offs []int
	for seq := uint64(1); seq <= 3; seq++ {
		data, err := encodeRec(sampleRec(seq))
		if err != nil {
			f.Fatal(err)
		}
		offs = append(offs, len(valid))
		valid = append(valid, data...)
	}
	flip := func(at int) []byte {
		out := append([]byte(nil), valid...)
		out[at] ^= 1
		return out
	}
	f.Add([]byte{})
	f.Add(hdr)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(flip(offs[1] + 10))
	f.Add(flip(offs[1]))
	f.Add(flip(offs[2] + 10))
	f.Add([]byte("not a journal"))
	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		j, torn, err := openJournal(path, func(*rec) {})
		out, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(out, in) {
				t.Fatalf("refused open (%v) changed the file", err)
			}
			return
		}
		j.close()
		if len(in) == 0 {
			if !bytes.Equal(out, hdr) {
				t.Fatalf("fresh journal = %x, want header %x", out, hdr)
			}
			return
		}
		if !bytes.HasPrefix(in, out) {
			t.Fatal("recovered journal is not a prefix of its input")
		}
		if torn != (len(out) < len(in)) {
			t.Fatalf("torn=%v but %d of %d bytes kept", torn, len(out), len(in))
		}
		for off := len(out); off < len(in); off++ {
			if _, _, ok := readFrame(in[off:]); ok {
				t.Fatalf("cut at %d drops an intact record at %d", len(out), off)
			}
		}
	})
}
