package antientropy

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"bootes/internal/plancache"
	"bootes/internal/sparse"
)

// FuzzComputeDiff throws hostile peer digests at the repair planner. A
// digest arrives from the network, so Validate must refuse any digest with a
// malformed, duplicated or out-of-order key, and every digest it admits must
// give a repair plan with no key twice, nothing pulled that the node does not
// own or already holds, and every owned difference accounted for.
func FuzzComputeDiff(f *testing.F) {
	// The local cache holds three keys: two owned (leading digit below 8),
	// one not.
	held, owned, unowned := strings.Repeat("1", 64), strings.Repeat("3", 64), strings.Repeat("9", 64)
	c, err := plancache.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range []string{held, owned, unowned} {
		if err := c.Put(&plancache.Entry{Key: k, Perm: sparse.Permutation{1, 0}, Reordered: true, K: 2}); err != nil {
			f.Fatal(err)
		}
	}
	owns := func(k string) bool { return k != "" && k[0] < '8' }
	heldStat, _ := c.Stat(held)

	entry := func(key string, size int64, crc uint32) DigestEntry {
		return DigestEntry{Key: key, Size: size, CRC: crc}
	}
	missing := strings.Repeat("2", 64)
	for _, d := range []Digest{
		{}, // empty
		{Entries: []DigestEntry{ // sorted: one equal, one missing, one divergent
			entry(held, heldStat.Size, heldStat.CRC),
			entry(missing, 10, 1),
			entry(owned, 1, 2),
		}},
		{Entries: []DigestEntry{entry(owned, 1, 2), entry(missing, 10, 1)}},                    // unsorted
		{Entries: []DigestEntry{entry(missing, 10, 1), entry(missing, 10, 1)}},                 // duplicate
		{Entries: []DigestEntry{entry(missing, 10, 1), entry(strings.Repeat("a", 64), 10, 1)}}, // not owned
		{Entries: []DigestEntry{entry("../escaped", 10, 1)}},                                   // malformed: traversal
		{Entries: []DigestEntry{entry(strings.ToUpper(strings.Repeat("ab", 32)), 10, 1)}},      // malformed: upper case
		{Entries: []DigestEntry{entry(missing[:63], 10, 1)}},                                   // malformed: short
		{Entries: []DigestEntry{entry("", 0, 0)}},                                              // malformed: empty
	} {
		data, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Digest
		if json.Unmarshal(data, &d) != nil {
			return
		}
		if err := d.Validate(); err != nil {
			return
		}
		peer := map[string]DigestEntry{}
		for i, e := range d.Entries {
			if !plancache.ValidKey(e.Key) {
				t.Fatalf("validated digest holds malformed key %q", e.Key)
			}
			if i > 0 && e.Key <= d.Entries[i-1].Key {
				t.Fatalf("validated digest keys not strictly ascending at %d", i)
			}
			peer[e.Key] = e
		}
		diff := ComputeDiff(c, d, owns)
		seen := map[string]string{}
		for name, keys := range map[string][]string{"Missing": diff.Missing, "Divergent": diff.Divergent, "NotOwned": diff.NotOwned} {
			if !slices.IsSorted(keys) {
				t.Fatalf("%s not sorted: %q", name, keys)
			}
			for _, k := range keys {
				if prev, dup := seen[k]; dup {
					t.Fatalf("key %.12s in both %s and %s", k, prev, name)
				}
				seen[k] = name
			}
		}
		for _, k := range diff.Missing {
			if _, ok := peer[k]; !ok || !owns(k) {
				t.Fatalf("Missing %.12s is not an owned digest key", k)
			}
			if _, ok := c.Stat(k); ok {
				t.Fatalf("Missing %.12s is already held", k)
			}
		}
		for _, k := range diff.Divergent {
			st, ok := c.Stat(k)
			if pe := peer[k]; !ok || !owns(k) || (st.Size == pe.Size && st.CRC == pe.CRC) {
				t.Fatalf("Divergent %.12s is not an owned, held, differing key", k)
			}
		}
		for _, pe := range d.Entries {
			st, ok := c.Stat(pe.Key)
			differs := !ok || st.Size != pe.Size || st.CRC != pe.CRC
			if owns(pe.Key) && differs && seen[pe.Key] == "" {
				t.Fatalf("owned differing key %.12s left out of the plan", pe.Key)
			}
		}
		if !slices.Equal(diff.NotOwned, []string{unowned}) {
			t.Fatalf("NotOwned = %q, want the one unowned local key", diff.NotOwned)
		}
	})
}
