package tournament

import "capred/internal/predictor"

// CallPathConfig configures the call-path-context component: a hash of
// the load's IP and the low bits of the call-path history register —
// the rolling hash over the last few call-site IPs that
// predictor.Session maintains — indexes a shared, tagged correlation
// table of last addresses with per-context confidence.
//
// This is the paper's §3.6 call-path predictor, which loses badly as a
// stand-alone replacement for CAP. As a tournament entrant the economics
// flip: the context disambiguates loads reached through different
// callers (an allocator called from two sites, an accessor walking two
// distinct structures), the per-context counter keeps it quiet
// everywhere else, and the chooser only takes its address on the loads
// where it has actually been winning.
type CallPathConfig struct {
	TableEntries int // correlation table entries (power of two)
	// TagBits is the number of extra hash bits stored per entry and
	// matched on lookup; zero disables tagging.
	TagBits int
	// PathBits is how many low bits of the path-history hash enter the
	// index. The session hash shifts three bits per call site, so k
	// retained call sites need about 3k bits; the default 12 keeps the
	// last four.
	PathBits      int
	ConfMax       uint8
	ConfThreshold uint8
}

// DefaultCallPathConfig matches the §3.6 table budget with last-4
// call-site context.
func DefaultCallPathConfig() CallPathConfig {
	return CallPathConfig{
		TableEntries: 8192, TagBits: 8, PathBits: 12,
		ConfMax: 3, ConfThreshold: 2,
	}
}

// cpathEntry is one correlation-table entry.
type cpathEntry struct {
	addr  uint32
	tag   uint16
	conf  uint8
	valid bool
}

// CallPath is the call-path-context entrant. It keeps no per-load state
// (its column holds empty values and it ignores its LB slot) and
// Predict never mutates the table, so the entrant is sound under a
// prediction gap without any speculative machinery: there is nothing to
// repair and nothing to squash.
type CallPath struct {
	predictor.Slots[struct{}]
	cfg     CallPathConfig
	tab     []cpathEntry
	idxBits uint
	pathMsk uint32
	tagMsk  uint32
}

// NewCallPath builds the call-path-context entrant.
func NewCallPath(cfg CallPathConfig) *CallPath {
	predictor.CheckPow2("tournament: call-path table entries", cfg.TableEntries)
	if cfg.TagBits > 16 {
		panic("tournament: call-path TagBits must be at most 16")
	}
	return &CallPath{
		cfg:     cfg,
		tab:     make([]cpathEntry, cfg.TableEntries),
		idxBits: predictor.Log2(cfg.TableEntries),
		pathMsk: uint32(1)<<uint(cfg.PathBits) - 1,
		tagMsk:  uint32(1)<<uint(cfg.TagBits) - 1,
	}
}

// ID identifies the component in Prediction.Selected.
func (c *CallPath) ID() predictor.Component { return predictor.CompCallPath }

// Name returns the component's display name.
func (c *CallPath) Name() string { return "callpath" }

// hash mixes the load IP with the retained call-path bits; index and
// tag split the result exactly as the CAP link table does.
func (c *CallPath) hash(ref predictor.LoadRef) uint32 {
	return ref.IP>>2 ^ ref.Path&c.pathMsk
}

func (c *CallPath) split(h uint32) (idx int, tag uint16) {
	return int(h & (uint32(len(c.tab)) - 1)), uint16(h >> c.idxBits & c.tagMsk)
}

// Predict computes the component's opinion; it never mutates state.
func (c *CallPath) Predict(_ int, ref predictor.LoadRef) predictor.ComponentPrediction {
	idx, tag := c.split(c.hash(ref))
	e := &c.tab[idx]
	if !e.valid || (c.cfg.TagBits > 0 && e.tag != tag) {
		return predictor.ComponentPrediction{}
	}
	return predictor.ComponentPrediction{
		Addr:      e.addr,
		Predicted: true,
		Confident: e.conf >= c.cfg.ConfThreshold,
	}
}

// Resolve trains the correlation table: a matching context builds
// confidence on repeats and records the newest address; a conflicting
// context takes the entry over with confidence reset.
func (c *CallPath) Resolve(_ int, ref predictor.LoadRef, cp predictor.ComponentPrediction, speculated bool, actual uint32) {
	idx, tag := c.split(c.hash(ref))
	e := &c.tab[idx]
	if e.valid && (c.cfg.TagBits == 0 || e.tag == tag) && e.addr == actual {
		e.conf = predictor.SatInc(e.conf, c.cfg.ConfMax)
	} else {
		e.conf = 0
	}
	e.addr, e.tag, e.valid = actual, tag, true
}

// Squash is a no-op: Predict leaves no in-flight bookkeeping behind.
func (c *CallPath) Squash(int, predictor.LoadRef, predictor.ComponentPrediction) {}
