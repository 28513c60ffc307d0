// Package tournament generalizes the paper's two-way hybrid (§3.7) to
// an N-way tournament meta-predictor in the style of modern branch
// meta-predictors: any number of component predictors produce opinions
// for every dynamic load, and a per-load-buffer-entry vector of
// saturating counters arbitrates among the confident ones, with a
// confidence-gated fallback order when none is confident.
//
// The components are predictor.Entrant values: the package predictor
// cores (stride, CAP, last-address) plus three entrants of this
// package: a Markov-N stride-history predictor, a delta-delta
// (acceleration) predictor, and a call-path-context predictor — the
// latter re-casting §3.6's negative result as a specialist that only
// has to win the loads it is good at, not the whole trace.
//
// As in the paper's hybrid, there is one load buffer. The tournament
// probes it once per Predict, Resolve and Squash; each entry holds the
// chooser counters, and the entry's slot index selects every entrant's
// per-load state from that entrant's own column.
//
// Both resolution disciplines compose unchanged: immediate mode
// (Predict then Resolve per load) and pipelined mode under
// internal/pipeline.Gap, including §5.4 wrong-path squashes. A two-way
// CAP+stride tournament built by NewPaperPair is decision-identical to
// predictor.NewHybrid with the default configuration; the differential
// fuzzer FuzzTournamentSelector pins that equivalence.
package tournament

import (
	"fmt"

	"capred/internal/predictor"
)

// MaxComponents bounds the entrant count so chooser entries stay a
// fixed-size array (no per-entry allocation).
const MaxComponents = 8

// Config configures the meta-chooser. Component configuration lives
// with the components themselves; the tournament owns the load buffer
// geometry and the counter shape.
type Config struct {
	// Entries/Ways is the geometry of the one load buffer, shared by the
	// chooser and every entrant.
	Entries int
	Ways    int
	// CounterMax is the per-component saturating-counter ceiling.
	CounterMax uint8
	// Init is the initial counter vector a newly allocated chooser
	// entry starts from, one value per component in order. Empty means
	// the default bias: 1 for every component, 2 for CAP — the §4.2
	// "initially biased towards weak CAP selection" rule generalized.
	// The order of descending initial counters (ties broken by
	// component order) also fixes the confidence-gated fallback order.
	Init []uint8
}

// DefaultConfig mirrors the paper's load-buffer geometry (§4.2).
func DefaultConfig() Config {
	return Config{Entries: 4096, Ways: 2, CounterMax: 3}
}

// chooserEntry is the per-load chooser state: one saturating counter
// per component.
type chooserEntry struct {
	ctr [MaxComponents]uint8
}

// ComponentStat is one component's selection ledger: how often its
// address was the one launched speculatively, and how often that
// address was right. The fields are exported (and JSON-tagged) so the
// distributed-leaf seam can carry them.
type ComponentStat struct {
	Name     string `json:"name"`
	Selected int64  `json:"selected"`
	Correct  int64  `json:"correct"`
}

// Tournament is the N-way meta-predictor. It implements
// predictor.Predictor and predictor.Squasher.
type Tournament struct {
	cfg   Config
	comps []predictor.Entrant
	ids   []predictor.Component
	lb    *predictor.LBTable[chooserEntry]
	init  [MaxComponents]uint8
	pref  []int // component indices in fallback-preference order

	// In-flight per-component opinions, oldest first. Resolutions pop
	// the head (they arrive in prediction order); squashes pop the tail
	// (they arrive youngest first). Slots are preallocated slices of
	// len(comps), reused forever — the hot path does not allocate.
	ring []([]predictor.ComponentPrediction)
	head int
	n    int

	stats []ComponentStat
}

// New builds a tournament over the given entrants and sizes their
// state columns to its load buffer. Zero-valued geometry fields of cfg
// take their DefaultConfig values. Entrants must have distinct,
// non-none IDs and are built for the discipline the tournament will be
// driven in (speculative under a prediction gap).
func New(cfg Config, comps ...predictor.Entrant) *Tournament {
	if len(comps) == 0 {
		panic("tournament: at least one component required")
	}
	if len(comps) > MaxComponents {
		panic(fmt.Sprintf("tournament: %d components exceed MaxComponents=%d", len(comps), MaxComponents))
	}
	if cfg.Entries == 0 {
		cfg.Entries = DefaultConfig().Entries
	}
	if cfg.Ways == 0 {
		cfg.Ways = DefaultConfig().Ways
	}
	if cfg.CounterMax == 0 {
		cfg.CounterMax = DefaultConfig().CounterMax
	}
	t := &Tournament{
		cfg:   cfg,
		comps: comps,
		lb:    predictor.NewLBTable[chooserEntry](cfg.Entries, cfg.Ways),
	}
	seen := map[predictor.Component]bool{}
	for _, c := range comps {
		id := c.ID()
		if id == predictor.CompNone {
			panic("tournament: component with CompNone ID")
		}
		if seen[id] {
			panic(fmt.Sprintf("tournament: duplicate component %s", id))
		}
		seen[id] = true
		c.SetSlots(cfg.Entries)
		t.ids = append(t.ids, id)
		t.stats = append(t.stats, ComponentStat{Name: c.Name()})
	}
	if len(cfg.Init) == 0 {
		for i, id := range t.ids {
			t.init[i] = 1
			if id == predictor.CompCAP {
				t.init[i] = 2 // §4.2: initial bias towards weak CAP
			}
		}
	} else {
		if len(cfg.Init) != len(comps) {
			panic("tournament: Init length must match component count")
		}
		for i, v := range cfg.Init {
			if v > cfg.CounterMax {
				panic("tournament: Init exceeds CounterMax")
			}
			t.init[i] = v
		}
	}
	// Fallback preference: descending initial counter, stable in
	// component order. Also the tie-break among equally-ranked
	// confident components.
	for i := range comps {
		t.pref = append(t.pref, i)
	}
	for i := 1; i < len(t.pref); i++ {
		for j := i; j > 0 && t.init[t.pref[j]] > t.init[t.pref[j-1]]; j-- {
			t.pref[j], t.pref[j-1] = t.pref[j-1], t.pref[j]
		}
	}
	t.ring = make([][]predictor.ComponentPrediction, 16)
	for i := range t.ring {
		t.ring[i] = make([]predictor.ComponentPrediction, len(comps))
	}
	return t
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// ComponentStats returns a copy of the per-component selection ledger:
// for each entrant, how many speculative accesses used its address and
// how many of those were correct.
func (t *Tournament) ComponentStats() []ComponentStat {
	out := make([]ComponentStat, len(t.stats))
	copy(out, t.stats)
	return out
}

// rank returns i's position in the fallback-preference order.
func (t *Tournament) rank(i int) int {
	for r, j := range t.pref {
		if j == i {
			return r
		}
	}
	return len(t.pref)
}

// pushFlight appends a fresh opinions slot to the in-flight ring.
func (t *Tournament) pushFlight() []predictor.ComponentPrediction {
	if t.n == len(t.ring) {
		grown := make([][]predictor.ComponentPrediction, 2*len(t.ring))
		for i := 0; i < t.n; i++ {
			grown[i] = t.ring[(t.head+i)%len(t.ring)]
		}
		for i := t.n; i < len(grown); i++ {
			grown[i] = make([]predictor.ComponentPrediction, len(t.comps))
		}
		t.ring, t.head = grown, 0
	}
	ops := t.ring[(t.head+t.n)%len(t.ring)]
	t.n++
	return ops
}

// popOldest removes and returns the oldest in-flight opinions.
func (t *Tournament) popOldest() []predictor.ComponentPrediction {
	ops := t.ring[t.head]
	t.head = (t.head + 1) % len(t.ring)
	t.n--
	return ops
}

// popNewest removes and returns the youngest in-flight opinions.
func (t *Tournament) popNewest() []predictor.ComponentPrediction {
	t.n--
	return t.ring[(t.head+t.n)%len(t.ring)]
}

// indexOf maps a component ID back to its slot, -1 for none.
func (t *Tournament) indexOf(id predictor.Component) int {
	for i, cid := range t.ids {
		if cid == id {
			return i
		}
	}
	return -1
}

// slot returns ip's LB slot and chooser entry, allocating if absent. A
// new entry starts from the initial counters, and every entrant's slot
// is reset: the load it held before was evicted.
func (t *Tournament) slot(ip uint32) (int, *chooserEntry) {
	i, existed := t.lb.Alloc(ip)
	e := t.lb.At(i)
	if !existed {
		e.ctr = t.init
		for _, c := range t.comps {
			c.Reset(i)
		}
	}
	return i, e
}

// Predict implements Predictor. Every component produces an opinion;
// among the confident ones the chooser picks the highest per-entry
// counter (ties to the higher-preference component). With no confident
// component, the highest-preference predicted address is reported
// without speculation — the confidence-gated fallback. The entry is
// allocated at prediction time, as the hybrid allocates its shared
// entry, so in-flight instance counts are exact in pipelined mode.
func (t *Tournament) Predict(ref predictor.LoadRef) predictor.Prediction {
	slot, e := t.slot(ref.IP)
	ops := t.pushFlight()
	for i, c := range t.comps {
		ops[i] = c.Predict(slot, ref)
	}

	var p predictor.Prediction
	for i, id := range t.ids {
		switch id {
		case predictor.CompStride:
			p.Stride = ops[i]
		case predictor.CompCAP:
			p.CAP = ops[i]
		}
	}

	chosen := -1
	for i := range ops {
		if !ops[i].Confident {
			continue
		}
		if chosen < 0 || e.ctr[i] > e.ctr[chosen] ||
			(e.ctr[i] == e.ctr[chosen] && t.rank(i) < t.rank(chosen)) {
			chosen = i
		}
	}
	if chosen >= 0 {
		p.Addr, p.Predicted, p.Speculate = ops[chosen].Addr, true, true
	} else {
		for _, i := range t.pref {
			if ops[i].Predicted {
				chosen = i
				p.Addr, p.Predicted = ops[i].Addr, true
				break
			}
		}
	}
	if chosen >= 0 {
		p.Selected = t.ids[chosen]
	}
	// SelState: for a two-way tournament the second component's counter
	// is the full relative 2-bit state (the counter vector keeps a
	// constant sum, so it maps 1:1 onto the hybrid's selector — see
	// FuzzTournamentSelector); for N-way it reports the winner's
	// counter, which is what breakdowns want to see.
	switch {
	case len(t.comps) == 2:
		p.SelState = e.ctr[1]
	case chosen >= 0:
		p.SelState = e.ctr[chosen]
	}
	return p
}

// Resolve implements Predictor. The chooser records relative
// performance only on disagreement among predicting components — the
// §3.7 selector rule generalized: every predictor that was right while
// another was wrong moves up, every predictor that was wrong while
// another was right moves down.
func (t *Tournament) Resolve(ref predictor.LoadRef, p predictor.Prediction, actual uint32) {
	if t.n == 0 {
		panic("tournament: Resolve without a matching Predict")
	}
	ops := t.popOldest()
	slot, e := t.slot(ref.IP)

	npred, ncorrect := 0, 0
	for i := range ops {
		if ops[i].Predicted {
			npred++
			if ops[i].Addr == actual {
				ncorrect++
			}
		}
	}
	if npred >= 2 && ncorrect > 0 && ncorrect < npred {
		for i := range ops {
			if !ops[i].Predicted {
				continue
			}
			if ops[i].Addr == actual {
				e.ctr[i] = predictor.SatInc(e.ctr[i], t.cfg.CounterMax)
			} else {
				e.ctr[i] = predictor.SatDec(e.ctr[i])
			}
		}
	}

	chosen := t.indexOf(p.Selected)
	for i, c := range t.comps {
		c.Resolve(slot, ref, ops[i], p.Speculate && i == chosen, actual)
	}
	if p.Speculate && chosen >= 0 {
		t.stats[chosen].Selected++
		if p.Addr == actual {
			t.stats[chosen].Correct++
		}
	}
}

// Squash implements Squasher: the youngest in-flight prediction was
// made on a wrong path and will never resolve (§5.4). The chooser
// counters are not modified; an entry evicted since its Predict has no
// in-flight state left to undo.
func (t *Tournament) Squash(ref predictor.LoadRef, p predictor.Prediction) {
	if t.n == 0 {
		return
	}
	ops := t.popNewest()
	if slot := t.lb.Find(ref.IP); slot >= 0 {
		for i, c := range t.comps {
			c.Squash(slot, ref, ops[i])
		}
	}
}
