package plancache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bootes/internal/sparse"
)

// On-disk entry container (little-endian):
//
//	magic      [4]byte  "BPLN"
//	version    uint32   (1)
//	payloadLen uint32
//	crc32      uint32   (IEEE, over the payload bytes)
//	payload:
//	  keyLen   uint16, key bytes (hex content hash; must match the filename)
//	  flags    uint8   (bit0 Reordered, bit1 Degraded)
//	  k        uint16
//	  preprocessSeconds float64
//	  footprintBytes    int64
//	  reasonLen uint16, reason bytes
//	  permLen   uint32, perm [permLen]int32
//
// The CRC covers everything after the header, so any byte flip or truncation
// in the payload is detected before the permutation is trusted; the decoded
// permutation is additionally validated as a bijection, so a loaded entry is
// always directly usable as a plan.

var entryMagic = [4]byte{'B', 'P', 'L', 'N'}

// FormatVersion is the on-disk entry format version.
const FormatVersion = 1

// maxPermLen bounds the decoded permutation length, mirroring the sparse
// package's 16.7M-row BCSR reader guard: a hostile header cannot demand an
// unbounded allocation.
const maxPermLen = 1 << 24

// ErrCorrupt reports an undecodable or integrity-failing cache entry.
var ErrCorrupt = errors.New("plancache: corrupt entry")

// Entry is one cached planning outcome.
type Entry struct {
	// Key is the content hash the entry is stored under.
	Key string
	// Perm maps new row position to original row.
	Perm sparse.Permutation
	// Reordered mirrors ReorderPlan.Reordered.
	Reordered bool
	// Degraded plans are never written by the serving layer, but the format
	// carries the flag so the cache round-trips any plan faithfully.
	Degraded bool
	// K is the cluster count used (0 when not reordered).
	K int
	// DegradedReason mirrors ReorderPlan.DegradedReason.
	DegradedReason string
	// PreprocessSeconds is the planning cost of the original computation
	// (what a cache hit saves, not what it costs).
	PreprocessSeconds float64
	// FootprintBytes is the modeled peak planning memory of the original run.
	FootprintBytes int64
}

// KeyCSR returns the content hash of m's sparsity structure (shape, row
// pointers, column indices) as a hex string. Values are deliberately
// excluded: planning consumes only the pattern.
func KeyCSR(m *sparse.CSR) string {
	h := sha256.New()
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m.Cols))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.NNZ()))
	h.Write(hdr[:])
	_ = binary.Write(h, binary.LittleEndian, m.RowPtr)
	_ = binary.Write(h, binary.LittleEndian, m.Col)
	return hex.EncodeToString(h.Sum(nil))
}

// ValidKey reports whether key has the form KeyCSR produces: 64 lowercase
// hex digits. Keys name files in the cache directory and arrive from peers
// and HTTP paths, so every entry point refuses any other string — a key
// such as "../x" would otherwise name a file outside the directory.
func ValidKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// EncodeEntry serializes e into the container format.
func EncodeEntry(e *Entry) ([]byte, error) {
	if len(e.Key) > math.MaxUint16 || len(e.DegradedReason) > math.MaxUint16 {
		return nil, fmt.Errorf("plancache: key or reason too long")
	}
	if len(e.Perm) > maxPermLen {
		return nil, fmt.Errorf("plancache: permutation length %d over limit", len(e.Perm))
	}
	if e.K < 0 || e.K > math.MaxUint16 {
		return nil, fmt.Errorf("plancache: k=%d out of range", e.K)
	}
	var payload bytes.Buffer
	writeU16 := func(v int) { _ = binary.Write(&payload, binary.LittleEndian, uint16(v)) }
	writeU16(len(e.Key))
	payload.WriteString(e.Key)
	var flags uint8
	if e.Reordered {
		flags |= 1
	}
	if e.Degraded {
		flags |= 2
	}
	payload.WriteByte(flags)
	writeU16(e.K)
	_ = binary.Write(&payload, binary.LittleEndian, e.PreprocessSeconds)
	_ = binary.Write(&payload, binary.LittleEndian, e.FootprintBytes)
	writeU16(len(e.DegradedReason))
	payload.WriteString(e.DegradedReason)
	_ = binary.Write(&payload, binary.LittleEndian, uint32(len(e.Perm)))
	_ = binary.Write(&payload, binary.LittleEndian, []int32(e.Perm))

	out := bytes.NewBuffer(make([]byte, 0, 16+payload.Len()))
	out.Write(entryMagic[:])
	_ = binary.Write(out, binary.LittleEndian, uint32(FormatVersion))
	_ = binary.Write(out, binary.LittleEndian, uint32(payload.Len()))
	_ = binary.Write(out, binary.LittleEndian, crc32.ChecksumIEEE(payload.Bytes()))
	out.Write(payload.Bytes())
	return out.Bytes(), nil
}

// DecodeEntry parses and integrity-checks a serialized entry. Every failure
// mode — bad magic, unknown version, truncation anywhere, CRC mismatch,
// implausible lengths, a malformed key, a non-bijective permutation —
// returns an error wrapping ErrCorrupt; DecodeEntry never panics on hostile
// input (fuzzed by FuzzDecodeEntry).
func DecodeEntry(data []byte) (*Entry, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: %d-byte file shorter than header", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:4], entryMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:])
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	payloadLen := binary.LittleEndian.Uint32(data[8:])
	sum := binary.LittleEndian.Uint32(data[12:])
	payload := data[16:]
	if uint64(len(payload)) != uint64(payloadLen) {
		return nil, fmt.Errorf("%w: payload %d bytes, header claims %d", ErrCorrupt, len(payload), payloadLen)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	r := bytes.NewReader(payload)
	readU16 := func() (int, error) {
		var v uint16
		err := binary.Read(r, binary.LittleEndian, &v)
		return int(v), err
	}
	e := &Entry{}
	keyLen, err := readU16()
	if err != nil {
		return nil, fmt.Errorf("%w: key length: %v", ErrCorrupt, err)
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, fmt.Errorf("%w: key: %v", ErrCorrupt, err)
	}
	e.Key = string(key)
	if !ValidKey(e.Key) {
		return nil, fmt.Errorf("%w: malformed key %q", ErrCorrupt, e.Key)
	}
	var flags uint8
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("%w: flags: %v", ErrCorrupt, err)
	}
	if flags > 3 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrCorrupt, flags)
	}
	e.Reordered = flags&1 != 0
	e.Degraded = flags&2 != 0
	if e.K, err = readU16(); err != nil {
		return nil, fmt.Errorf("%w: k: %v", ErrCorrupt, err)
	}
	if err := binary.Read(r, binary.LittleEndian, &e.PreprocessSeconds); err != nil {
		return nil, fmt.Errorf("%w: preprocess seconds: %v", ErrCorrupt, err)
	}
	if math.IsNaN(e.PreprocessSeconds) || e.PreprocessSeconds < 0 {
		return nil, fmt.Errorf("%w: implausible preprocess seconds", ErrCorrupt)
	}
	if err := binary.Read(r, binary.LittleEndian, &e.FootprintBytes); err != nil {
		return nil, fmt.Errorf("%w: footprint: %v", ErrCorrupt, err)
	}
	if e.FootprintBytes < 0 {
		return nil, fmt.Errorf("%w: negative footprint", ErrCorrupt)
	}
	reasonLen, err := readU16()
	if err != nil {
		return nil, fmt.Errorf("%w: reason length: %v", ErrCorrupt, err)
	}
	reason := make([]byte, reasonLen)
	if _, err := io.ReadFull(r, reason); err != nil {
		return nil, fmt.Errorf("%w: reason: %v", ErrCorrupt, err)
	}
	e.DegradedReason = string(reason)
	var permLen uint32
	if err := binary.Read(r, binary.LittleEndian, &permLen); err != nil {
		return nil, fmt.Errorf("%w: perm length: %v", ErrCorrupt, err)
	}
	if permLen > maxPermLen {
		return nil, fmt.Errorf("%w: implausible perm length %d", ErrCorrupt, permLen)
	}
	if uint64(r.Len()) != uint64(permLen)*4 {
		return nil, fmt.Errorf("%w: perm payload %d bytes, want %d", ErrCorrupt, r.Len(), permLen*4)
	}
	perm := make([]int32, permLen)
	if err := binary.Read(r, binary.LittleEndian, perm); err != nil {
		return nil, fmt.Errorf("%w: perm: %v", ErrCorrupt, err)
	}
	e.Perm = sparse.Permutation(perm)
	if err := e.Perm.Validate(len(perm)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if e.Degraded && e.DegradedReason == "" {
		return nil, fmt.Errorf("%w: degraded entry without reason", ErrCorrupt)
	}
	return e, nil
}
