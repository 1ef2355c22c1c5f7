package plancache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"bootes/internal/sparse"
)

// FuzzDecodeEntry throws hostile bytes at the cache entry decoder: the
// durability story depends on DecodeEntry classifying ANY byte string as
// either a valid entry or ErrCorrupt — never panicking, never over-allocating
// from a hostile length field, and never returning an unusable permutation.
func FuzzDecodeEntry(f *testing.F) {
	// Seed with a valid entry and targeted mutations of it.
	valid, err := EncodeEntry(&Entry{
		Key:       strings.Repeat("ab", 32),
		Perm:      sparse.Permutation{2, 0, 1},
		Reordered: true,
		K:         8,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("BPLN"))
	f.Add(valid[:len(valid)-3])               // truncated payload
	f.Add(append([]byte(nil), valid[:16]...)) // header only
	f.Add(bytes.Repeat([]byte{0xFF}, 64))     // garbage
	huge := append([]byte(nil), valid...)     // hostile perm length
	binary.LittleEndian.PutUint32(huge[len(huge)-16:], 1<<31)
	f.Add(huge)
	// Valid container framing around a hostile payload: keeps the fuzzer
	// past the CRC gate so the field decoders get exercised too.
	payload := bytes.Repeat([]byte{0x01}, 40)
	framed := make([]byte, 0, 16+len(payload))
	framed = append(framed, 'B', 'P', 'L', 'N')
	framed = binary.LittleEndian.AppendUint32(framed, FormatVersion)
	framed = binary.LittleEndian.AppendUint32(framed, uint32(len(payload)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(payload))
	framed = append(framed, payload...)
	f.Add(framed)

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			if e != nil {
				t.Fatal("error with non-nil entry")
			}
			return
		}
		// A successful decode must yield a directly usable plan.
		if err := e.Perm.Validate(len(e.Perm)); err != nil {
			t.Fatalf("decoded entry has invalid permutation: %v", err)
		}
		if e.Degraded && e.DegradedReason == "" {
			t.Fatal("decoded degraded entry without reason")
		}
		// And re-encoding must round-trip bit-identically.
		re, err := EncodeEntry(e)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("decode/encode round trip not bit-identical")
		}
	})
}
