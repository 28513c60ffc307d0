package predictor

// LBTable is a generic set-associative table indexed and tagged by static
// instruction address, with true-LRU replacement inside each set. There
// are three load buffers in the module, all instances of it: the
// hybrid's, Single's (one entrant alone) and the tournament's (N
// entrants sharing one). It is exported for the tournament package.
type LBTable[T any] struct {
	sets     int
	ways     int
	setLow   uint // bits to shift IP before set selection
	setMask  uint32
	tagShift uint // setLow + log2(sets), precomputed off the hot path
	slots    []lbSlot[T]
}

type lbSlot[T any] struct {
	valid bool
	tag   uint32
	age   uint32 // lower is more recently used
	val   T
}

// NewLBTable builds a table with the given total entry count and
// associativity; both must be powers of two with entries ≥ ways.
func NewLBTable[T any](entries, ways int) *LBTable[T] {
	checkPow2("LB entries", entries)
	checkPow2("LB ways", ways)
	if ways > entries {
		panic("predictor: LB ways exceed entries")
	}
	sets := entries / ways
	return &LBTable[T]{
		sets:     sets,
		ways:     ways,
		setLow:   2, // instructions are 4-byte aligned in our traces
		setMask:  uint32(sets - 1),
		tagShift: 2 + log2(sets),
		slots:    make([]lbSlot[T], entries),
	}
}

func (t *LBTable[T]) set(ip uint32) int {
	return int((ip >> t.setLow) & t.setMask)
}

func (t *LBTable[T]) tag(ip uint32) uint32 {
	return ip >> t.tagShift
}

// Find returns the slot index of ip's entry, or -1 on a miss. A hit
// refreshes LRU. Slot indices are stable while the entry is resident,
// so a composer can keep per-load state in columns of its own indexed
// by them (see Entrant).
func (t *LBTable[T]) Find(ip uint32) int {
	base := t.set(ip) * t.ways
	tag := t.tag(ip)
	for i := base; i < base+t.ways; i++ {
		s := &t.slots[i]
		if s.valid && s.tag == tag {
			t.touch(base, i)
			return i
		}
	}
	return -1
}

// Alloc returns the slot index of ip's entry, allocating (and evicting
// the LRU way) if absent; existed is true when the entry was resident.
// A newly allocated slot's value is zeroed.
func (t *LBTable[T]) Alloc(ip uint32) (slot int, existed bool) {
	base := t.set(ip) * t.ways
	tag := t.tag(ip)
	victim := base
	for i := base; i < base+t.ways; i++ {
		s := &t.slots[i]
		if s.valid && s.tag == tag {
			t.touch(base, i)
			return i, true
		}
		if !s.valid {
			victim = i
		} else if t.slots[victim].valid && s.age > t.slots[victim].age {
			victim = i
		}
	}
	s := &t.slots[victim]
	var zero T
	s.valid = true
	s.tag = tag
	s.val = zero
	t.touch(base, victim)
	return victim, false
}

// At returns the value held in a slot.
func (t *LBTable[T]) At(slot int) *T { return &t.slots[slot].val }

// touch marks slot i most recently used within its set.
func (t *LBTable[T]) touch(base, i int) {
	for j := base; j < base+t.ways; j++ {
		if t.slots[j].valid {
			t.slots[j].age++
		}
	}
	t.slots[i].age = 0
}

// Entries returns the table capacity.
func (t *LBTable[T]) Entries() int { return t.sets * t.ways }
