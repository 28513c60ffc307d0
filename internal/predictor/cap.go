package predictor

// CAPConfig configures the correlated context-based address predictor of
// §3. The default configuration reproduces the paper's baseline: 4K-entry
// 2-way load buffer, 4K-entry direct-mapped link table recording base
// addresses, history of four base addresses compressed with shift(m)-xor,
// 8-bit LT tags, 4-bit pollution-free field, per-path control-flow
// indications, and 8 offset LSBs kept in the LB.
type CAPConfig struct {
	LBEntries int
	LBWays    int
	LTEntries int
	LTWays    int // 1 = direct-mapped (the paper's default)

	// HistoryLen is the number of past base addresses the history should
	// retain; it determines the shift amount m of the shift(m)-xor scheme
	// given the history width (LT index bits + TagBits).
	HistoryLen int
	// TagBits is the number of extra history bits stored in each LT entry
	// and matched on lookup (§3.4, "LT tags"). Zero disables tagging.
	TagBits int
	// CF configures the control-flow indications mechanism.
	CF CFConfig
	// GlobalCorrelation enables the base-address scheme of §3.3: the LB
	// history and the LT record base addresses (effective address minus
	// the low OffsetBits of the instruction's immediate offset) so loads
	// walking the same data structure share links.
	GlobalCorrelation bool
	// OffsetBits is how many offset LSBs are kept in the LB (the paper
	// keeps 8, since recursive data structures are typically aligned and
	// under 256 bytes).
	OffsetBits int
	// PFBits is the width of the pollution-free field (§3.5); the paper
	// uses bits 2..5 of the updating base address, i.e. 4 bits. Zero
	// disables the mechanism.
	PFBits int
	// PFTableEntries, when non-zero, moves the PF bits out of the LT into
	// a separate direct-mapped table with this many entries, indexed with
	// the extended history (the [Mora98]-style variant of §3.5).
	PFTableEntries int

	ConfMax       uint8
	ConfThreshold uint8
	Speculative   bool
}

// DefaultCAPConfig returns the paper's baseline CAP configuration (§4.2).
func DefaultCAPConfig() CAPConfig {
	return CAPConfig{
		LBEntries: 4096, LBWays: 2,
		LTEntries: 4096, LTWays: 1,
		HistoryLen:        4,
		TagBits:           8,
		CF:                CFConfig{Bits: 4, Table: true},
		GlobalCorrelation: true,
		OffsetBits:        8,
		PFBits:            4,
		PFTableEntries:    16384,
		ConfMax:           3,
		ConfThreshold:     2,
	}
}

// ltEntry is one link-table entry: the predicted next base address, the
// history tag, and the pollution-free field.
type ltEntry struct {
	link      uint32
	tag       uint16
	age       uint32
	linkValid bool
	pf        uint8
	pfValid   bool
}

// pfEntry is an external pollution-free-table entry.
type pfEntry struct {
	pf    uint8
	valid bool
}

// capState is the per-static-load CAP state kept in a load-buffer entry;
// the hybrid predictor embeds it alongside strideState.
type capState struct {
	hist uint32 // architectural history (shift-xor compressed)
	conf uint8
	cf   cfInd

	// Speculative (pipelined) state.
	specHist  uint32
	specValid bool
	pending   uint16
	poisoned  bool // misprediction in flight; suppress speculation (§5.2)
}

// capCore implements the CAP mechanism over a capState. The Hybrid
// predictor holds one and passes the states of its own entries; as an
// Entrant it keeps one state per LB slot in its column. The link table
// lives here (it is global, not per-load). As an Entrant, Resolve always
// updates the link table (§4.3 UpdateAlways, the paper's best policy);
// the cross-component update policies remain a Hybrid-only refinement
// because they need the other component's outcome.
type capCore struct {
	Slots[capState]
	cfg     CAPConfig
	lt      []ltEntry
	pfTab   []pfEntry
	ltSets  int
	shift   uint   // m of shift(m)-xor
	histMsk uint32 // history width mask (index bits + tag bits)
	idxBits uint
	tagMsk  uint32
	offMsk  uint32
	pfMsk   uint32
}

func newCAPCore(cfg CAPConfig) *capCore {
	CheckPow2("predictor: LT entries", cfg.LTEntries)
	CheckPow2("predictor: LT ways", cfg.LTWays)
	if cfg.LTWays > 1 && cfg.TagBits == 0 {
		panic("predictor: set-associative LT requires TagBits > 0")
	}
	if cfg.HistoryLen < 1 {
		panic("predictor: HistoryLen must be at least 1")
	}
	if cfg.TagBits > 16 {
		panic("predictor: TagBits must be at most 16")
	}
	ltSets := cfg.LTEntries / cfg.LTWays
	idxBits := Log2(ltSets)
	histBits := idxBits + uint(cfg.TagBits)
	if histBits > 32 {
		panic("predictor: history wider than 32 bits")
	}
	// Choose the shift so that HistoryLen addresses fit in the history:
	// after HistoryLen updates an address has been shifted out.
	shift := (histBits + uint(cfg.HistoryLen) - 1) / uint(cfg.HistoryLen)
	if shift == 0 {
		shift = 1
	}
	c := &capCore{
		cfg:     cfg,
		lt:      make([]ltEntry, cfg.LTEntries),
		ltSets:  ltSets,
		shift:   shift,
		idxBits: idxBits,
		histMsk: uint32(1)<<histBits - 1,
		tagMsk:  uint32(1)<<uint(cfg.TagBits) - 1,
		pfMsk:   uint32(1)<<uint(cfg.PFBits) - 1,
	}
	if histBits == 32 {
		c.histMsk = ^uint32(0)
	}
	if cfg.GlobalCorrelation {
		c.offMsk = uint32(1)<<uint(cfg.OffsetBits) - 1
	}
	if cfg.PFTableEntries > 0 {
		CheckPow2("predictor: PF table entries", cfg.PFTableEntries)
		c.pfTab = make([]pfEntry, cfg.PFTableEntries)
	}
	return c
}

// offLow extracts the offset LSBs recorded in the LB. With global
// correlation disabled the mask is zero, so base == effective address and
// the predictor degenerates to per-load full-address links.
func (c *capCore) offLow(offset int32) uint32 {
	return uint32(offset) & c.offMsk
}

// base converts an effective address to the base address recorded in
// histories and links.
func (c *capCore) base(addr uint32, offset int32) uint32 {
	return addr - c.offLow(offset)
}

// advance folds a base address into the history: shift left by m, xor with
// the address LSBs minus the two alignment bits, truncate (§3.2).
func (c *capCore) advance(hist, base uint32) uint32 {
	return (hist<<c.shift ^ base>>2) & c.histMsk
}

func (c *capCore) split(hist uint32) (idx int, tag uint16) {
	return int(hist & (uint32(c.ltSets) - 1)), uint16(hist >> c.idxBits & c.tagMsk)
}

// ltLookup finds the link for a history value. ok distinguishes "no link
// recorded" from a valid link; tagOK is the §3.4 tag confidence signal.
func (c *capCore) ltLookup(hist uint32) (link uint32, ok, tagOK bool) {
	idx, tag := c.split(hist)
	base := idx * c.cfg.LTWays
	if c.cfg.LTWays == 1 {
		e := &c.lt[base]
		if !e.linkValid {
			return 0, false, false
		}
		return e.link, true, c.cfg.TagBits == 0 || e.tag == tag
	}
	for i := base; i < base+c.cfg.LTWays; i++ {
		e := &c.lt[i]
		if e.linkValid && e.tag == tag {
			return e.link, true, true
		}
	}
	return 0, false, false
}

// ltUpdate records hist → base, gated by the pollution-free mechanism:
// the link is written only when the same base attempted the same entry on
// the immediately preceding update (§3.5).
func (c *capCore) ltUpdate(hist, base uint32) {
	idx, tag := c.split(hist)
	pfNew := uint8(base >> 2 & c.pfMsk)

	gate := true
	if c.cfg.PFBits > 0 {
		if c.pfTab != nil {
			pe := &c.pfTab[hist&uint32(len(c.pfTab)-1)]
			gate = pe.valid && pe.pf == pfNew
			pe.pf, pe.valid = pfNew, true
		} else {
			// In-LT PF bits: one field per direct-mapped entry (or per
			// set when associative; the first way carries it).
			pe := &c.lt[idx*c.cfg.LTWays]
			gate = pe.pfValid && pe.pf == pfNew
			pe.pf, pe.pfValid = pfNew, true
		}
	}
	if !gate {
		return
	}

	setBase := idx * c.cfg.LTWays
	if c.cfg.LTWays == 1 {
		e := &c.lt[setBase]
		e.link, e.tag, e.linkValid = base, tag, true
		return
	}
	victim := setBase
	for i := setBase; i < setBase+c.cfg.LTWays; i++ {
		e := &c.lt[i]
		if e.linkValid && e.tag == tag {
			victim = i
			break
		}
		if !e.linkValid {
			victim = i
		} else if c.lt[victim].linkValid && e.age > c.lt[victim].age {
			victim = i
		}
	}
	for i := setBase; i < setBase+c.cfg.LTWays; i++ {
		c.lt[i].age++
	}
	e := &c.lt[victim]
	e.link, e.tag, e.linkValid, e.age = base, tag, true, 0
}

// predict computes the CAP opinion for the load and, in speculative mode,
// advances the speculative history.
func (c *capCore) predict(cs *capState, ref LoadRef) ComponentPrediction {
	if !c.cfg.Speculative {
		return c.predictFrom(cs, cs.hist, true, ref)
	}
	if cs.pending == 0 && !cs.poisoned {
		cs.specHist, cs.specValid = cs.hist, true
	}
	cp := c.predictFrom(cs, cs.specHist, cs.specValid, ref)
	if cp.Predicted && cs.specValid {
		cs.specHist = c.advance(cs.specHist, c.base(cp.Addr, ref.Offset))
	} else {
		// The address is unknown until resolution; the speculative
		// history cannot be maintained (§5.2: no catch-up mechanism).
		cs.specValid = false
	}
	if cs.poisoned {
		cp.Confident = false
	}
	cs.pending++
	return cp
}

func (c *capCore) predictFrom(cs *capState, hist uint32, histValid bool, ref LoadRef) ComponentPrediction {
	if !histValid {
		return ComponentPrediction{}
	}
	link, ok, tagOK := c.ltLookup(hist)
	if !ok {
		return ComponentPrediction{}
	}
	addr := link + c.offLow(ref.Offset)
	confident := cs.conf >= c.cfg.ConfThreshold &&
		tagOK &&
		cs.cf.allow(c.cfg.CF, ref.GHR)
	return ComponentPrediction{Addr: addr, Predicted: true, Confident: confident}
}

// resolve verifies the CAP part of a prediction and updates history,
// confidence and (when updateLT allows) the link table.
func (c *capCore) resolve(cs *capState, cp ComponentPrediction, speculated bool, ref LoadRef, actual uint32, updateLT bool) {
	if c.cfg.Speculative && cs.pending > 0 {
		cs.pending--
	}
	base := c.base(actual, ref.Offset)
	correct := cp.Predicted && cp.Addr == actual

	if cp.Predicted {
		if correct {
			cs.conf = SatInc(cs.conf, c.cfg.ConfMax)
		} else {
			cs.conf = 0
		}
		cs.cf.record(c.cfg.CF, ref.GHR, correct, speculated)
	}

	if updateLT {
		c.ltUpdate(cs.hist, base)
	}
	cs.hist = c.advance(cs.hist, base)

	if c.cfg.Speculative {
		if cp.Predicted && !correct {
			cs.poisoned = true
			cs.specValid = false
		}
		if cs.pending == 0 {
			cs.poisoned = false
			cs.specHist, cs.specValid = cs.hist, true
		}
	}
}

// squash undoes Predict's in-flight bookkeeping for a flushed prediction.
// The speculative history cannot be rewound (shift-xor is lossy), so it
// is invalidated until the pending window drains — the architectural
// history is untouched, which is exactly the history-buffer recovery
// property §5.4 asks for.
func (c *capCore) squash(cs *capState) {
	if !c.cfg.Speculative {
		return
	}
	if cs.pending > 0 {
		cs.pending--
	}
	cs.specValid = false
	if cs.pending == 0 {
		cs.poisoned = false
		cs.specHist, cs.specValid = cs.hist, true
	}
}

// NewCAPEntrant builds the CAP entrant. The LB geometry fields of cfg
// are not used: the composer's load buffer indexes the column.
func NewCAPEntrant(cfg CAPConfig) Entrant { return newCAPCore(cfg) }

func (c *capCore) ID() Component { return CompCAP }

func (c *capCore) Name() string { return "cap" }

func (c *capCore) Predict(slot int, ref LoadRef) ComponentPrediction {
	return c.predict(&c.col[slot], ref)
}

func (c *capCore) Resolve(slot int, ref LoadRef, cp ComponentPrediction, speculated bool, actual uint32) {
	c.resolve(&c.col[slot], cp, speculated, ref, actual, true)
}

func (c *capCore) Squash(slot int, _ LoadRef, _ ComponentPrediction) {
	c.squash(&c.col[slot])
}

// CAP is the stand-alone correlated context-based address predictor:
// the CAP entrant run as a full Predictor, plus the look-ahead of §5.4.
type CAP struct {
	Standalone
	core *capCore
}

// NewCAP builds a CAP predictor over a cfg.LBEntries × cfg.LBWays load
// buffer.
func NewCAP(cfg CAPConfig) *CAP {
	core := newCAPCore(cfg)
	return &CAP{Standalone{NewSingle(core, cfg.LBEntries, cfg.LBWays)}, core}
}

// PredictAhead follows the link-table chain n steps from the load's
// current history, returning up to n predicted future addresses for the
// same static load. This is the §5.4 mechanism for predicting "multiple
// addresses ahead ... similar in concept to the two-block ahead branch
// predictor" [Sezn96]: each predicted base address is folded into a
// scratch history to look up the next link. The chain stops early at the
// first missing or tag-mismatching link. PredictAhead never mutates
// predictor state.
func (c *CAP) PredictAhead(ref LoadRef, n int) []uint32 {
	slot := c.c.lb.Find(ref.IP)
	if slot < 0 {
		return nil
	}
	core, cs := c.core, c.core.At(slot)
	hist := cs.hist
	if core.cfg.Speculative && cs.specValid {
		hist = cs.specHist
	}
	out := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		link, ok, tagOK := core.ltLookup(hist)
		if !ok || !tagOK {
			break
		}
		out = append(out, link+core.offLow(ref.Offset))
		hist = core.advance(hist, link)
	}
	return out
}
