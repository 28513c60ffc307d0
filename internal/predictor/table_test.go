package predictor

import (
	"testing"
	"testing/quick"
)

// lookup returns ip's entry, or nil on a miss.
func lookup[T any](t *LBTable[T], ip uint32) *T {
	if i := t.Find(ip); i >= 0 {
		return t.At(i)
	}
	return nil
}

// insert returns ip's entry, allocating it if absent, and whether it
// already existed.
func insert[T any](t *LBTable[T], ip uint32) (*T, bool) {
	i, existed := t.Alloc(ip)
	return t.At(i), existed
}

func TestLBTableLookupMiss(t *testing.T) {
	tb := NewLBTable[int](16, 2)
	if lookup(tb, 0x1000) != nil {
		t.Error("lookup on empty table should miss")
	}
}

func TestLBTableInsertAndLookup(t *testing.T) {
	tb := NewLBTable[int](16, 2)
	v, existed := insert(tb, 0x1000)
	if existed {
		t.Error("first insert should not report existing")
	}
	*v = 42
	got := lookup(tb, 0x1000)
	if got == nil || *got != 42 {
		t.Fatalf("lookup after insert = %v, want 42", got)
	}
	v2, existed := insert(tb, 0x1000)
	if !existed || *v2 != 42 {
		t.Error("second insert should find the existing entry")
	}
}

func TestLBTableLRUEviction(t *testing.T) {
	// 4 entries, 2 ways -> 2 sets. IPs in the same set: set bits are
	// (ip>>2)&1, so ip=0, 8, 16 share set 0.
	tb := NewLBTable[int](4, 2)
	a, _ := insert(tb, 0)
	*a = 1
	b, _ := insert(tb, 8)
	*b = 2
	// Touch 0 so 8 becomes LRU.
	if lookup(tb, 0) == nil {
		t.Fatal("entry 0 vanished")
	}
	c, _ := insert(tb, 16)
	*c = 3
	if lookup(tb, 8) != nil {
		t.Error("LRU entry (ip 8) should have been evicted")
	}
	if got := lookup(tb, 0); got == nil || *got != 1 {
		t.Error("MRU entry (ip 0) should have survived")
	}
	if got := lookup(tb, 16); got == nil || *got != 3 {
		t.Error("new entry (ip 16) missing")
	}
}

func TestLBTableEvictedEntryIsZeroed(t *testing.T) {
	tb := NewLBTable[int](2, 2)
	a, _ := insert(tb, 0)
	*a = 7
	b, _ := insert(tb, 8)
	*b = 8
	// Set is full; inserting a third evicts LRU (ip 0).
	c, existed := insert(tb, 16)
	if existed {
		t.Error("insert after eviction should report new entry")
	}
	if *c != 0 {
		t.Errorf("recycled entry not zeroed: %d", *c)
	}
}

func TestLBTableDirectMapped(t *testing.T) {
	tb := NewLBTable[int](4, 1)
	v, _ := insert(tb, 0x100)
	*v = 5
	// 0x100>>2 = 0x40, set = 0x40 & 3 = 0; conflicting ip maps same set:
	conflict := uint32(0x100 + 4*4) // next multiple landing in set 0
	insert(tb, conflict)
	if lookup(tb, 0x100) != nil {
		t.Error("direct-mapped conflict should evict")
	}
}

func TestLBTableGeometryPanics(t *testing.T) {
	for _, g := range []struct{ e, w int }{{0, 1}, {7, 1}, {4, 3}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLBTable(%d,%d) did not panic", g.e, g.w)
				}
			}()
			NewLBTable[int](g.e, g.w)
		}()
	}
}

// Property: after inserting an IP, lookup always finds it (until evicted
// by a conflicting insert), and distinct tags never alias.
func TestLBTableNoFalseHits(t *testing.T) {
	f := func(ips []uint32) bool {
		tb := NewLBTable[uint32](64, 2)
		written := make(map[uint32]uint32)
		for _, ip := range ips {
			v, _ := insert(tb, ip)
			*v = ip
			written[ip] = ip
		}
		// Any hit must return the value written for exactly that IP.
		for ip := range written {
			if got := lookup(tb, ip); got != nil && *got != ip {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLBTableEntries(t *testing.T) {
	if got := NewLBTable[int](4096, 2).Entries(); got != 4096 {
		t.Errorf("entries() = %d, want 4096", got)
	}
}
