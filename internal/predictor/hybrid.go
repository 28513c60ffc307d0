package predictor

// UpdatePolicy selects when the hybrid predictor updates the link table
// (§4.3). The paper finds UpdateAlways slightly better on almost all
// traces because of unstable stride-like sequences.
type UpdatePolicy uint8

// Link-table update policies of §4.3.
const (
	// UpdateAlways updates the LT on every load resolution.
	UpdateAlways UpdatePolicy = iota
	// UpdateUnlessStrideCorrect skips the LT update when the stride
	// component predicted the load correctly.
	UpdateUnlessStrideCorrect
	// UpdateUnlessStrideSelected skips the LT update when the stride
	// component predicted correctly and its prediction was the one
	// selected for the speculative access.
	UpdateUnlessStrideSelected
)

// String names the policy.
func (u UpdatePolicy) String() string {
	switch u {
	case UpdateAlways:
		return "always"
	case UpdateUnlessStrideCorrect:
		return "unless-stride-correct"
	case UpdateUnlessStrideSelected:
		return "unless-stride-selected"
	default:
		return "invalid"
	}
}

// Selector counter states (2-bit, §3.7). The counter is initially biased
// towards weak CAP selection since CAP's base misprediction rate is lower.
const (
	SelStrongStride uint8 = iota
	SelWeakStride
	SelWeakCAP
	SelStrongCAP
)

// HybridConfig configures the hybrid CAP/stride predictor of §3.7. The
// load buffer is shared: each entry carries both components' fields plus
// the selector counter.
type HybridConfig struct {
	Stride StrideConfig // Entries/Ways are taken from CAP.LBEntries/LBWays
	CAP    CAPConfig
	// StaticSelector, when not CompNone, always prefers that component
	// when both are confident instead of using the dynamic counter.
	StaticSelector Component
	UpdatePolicy   UpdatePolicy
	Speculative    bool
}

// DefaultHybridConfig returns the paper's baseline hybrid configuration.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		Stride:       DefaultStrideConfig(),
		CAP:          DefaultCAPConfig(),
		UpdatePolicy: UpdateAlways,
	}
}

type hybridEntry struct {
	stride strideState
	cap    capState
	sel    uint8
}

// Hybrid is the hybrid CAP/stride predictor: both components predict every
// dynamic load out of a shared load buffer; a speculative access is
// launched when at least one component is confident, with a per-entry
// 2-bit counter selecting between them when both are.
type Hybrid struct {
	cfg        HybridConfig
	strideCore strideCore
	capCore    *capCore
	lb         *LBTable[hybridEntry]
}

// NewHybrid builds a hybrid predictor. The Speculative flag is propagated
// to both components.
func NewHybrid(cfg HybridConfig) *Hybrid {
	cfg.Stride.Speculative = cfg.Speculative
	cfg.CAP.Speculative = cfg.Speculative
	return &Hybrid{
		cfg:        cfg,
		strideCore: strideCore{cfg: cfg.Stride},
		capCore:    newCAPCore(cfg.CAP),
		lb:         NewLBTable[hybridEntry](cfg.CAP.LBEntries, cfg.CAP.LBWays),
	}
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return "hybrid" }

// entry returns ip's LB entry, allocating it if absent.
func (h *Hybrid) entry(ip uint32) *hybridEntry {
	i, existed := h.lb.Alloc(ip)
	e := h.lb.At(i)
	if !existed {
		e.sel = SelWeakCAP // initial bias towards weak CAP (§4.2)
	}
	return e
}

// Predict implements Predictor. The LB entry is allocated at prediction
// time so that in-flight instance counts are exact in pipelined mode.
func (h *Hybrid) Predict(ref LoadRef) Prediction {
	e := h.entry(ref.IP)
	scp := h.strideCore.predict(&e.stride, ref)
	ccp := h.capCore.predict(&e.cap, ref)

	p := Prediction{Stride: scp, CAP: ccp, SelState: e.sel}
	switch {
	case scp.Confident && ccp.Confident:
		if h.selectCAP(e.sel) {
			p.Addr, p.Selected = ccp.Addr, CompCAP
		} else {
			p.Addr, p.Selected = scp.Addr, CompStride
		}
		p.Predicted, p.Speculate = true, true
	case ccp.Confident:
		p.Addr, p.Selected = ccp.Addr, CompCAP
		p.Predicted, p.Speculate = true, true
	case scp.Confident:
		p.Addr, p.Selected = scp.Addr, CompStride
		p.Predicted, p.Speculate = true, true
	case ccp.Predicted:
		p.Addr, p.Selected, p.Predicted = ccp.Addr, CompCAP, true
	case scp.Predicted:
		p.Addr, p.Selected, p.Predicted = scp.Addr, CompStride, true
	}
	return p
}

func (h *Hybrid) selectCAP(sel uint8) bool {
	if h.cfg.StaticSelector != CompNone {
		return h.cfg.StaticSelector == CompCAP
	}
	return sel >= SelWeakCAP
}

// Resolve implements Predictor.
func (h *Hybrid) Resolve(ref LoadRef, p Prediction, actual uint32) {
	e := h.entry(ref.IP)

	strideCorrect := p.Stride.Predicted && p.Stride.Addr == actual
	capCorrect := p.CAP.Predicted && p.CAP.Addr == actual

	// Selector counters record the relative performance of the two
	// components, updated after address verification (§3.7).
	if p.Stride.Predicted && p.CAP.Predicted {
		switch {
		case capCorrect && !strideCorrect:
			e.sel = SatInc(e.sel, SelStrongCAP)
		case strideCorrect && !capCorrect:
			e.sel = SatDec(e.sel)
		}
	}

	updateLT := true
	switch h.cfg.UpdatePolicy {
	case UpdateUnlessStrideCorrect:
		updateLT = !strideCorrect
	case UpdateUnlessStrideSelected:
		updateLT = !(strideCorrect && p.Speculate && p.Selected == CompStride)
	}

	spec := p.Speculate
	h.strideCore.resolve(&e.stride, p.Stride, spec && p.Selected == CompStride, ref, actual)
	h.capCore.resolve(&e.cap, p.CAP, spec && p.Selected == CompCAP, ref, actual, updateLT)
}

// Squash implements Squasher: both components drop the flushed in-flight
// prediction (§5.4 wrong-path recovery).
func (h *Hybrid) Squash(ref LoadRef, p Prediction) {
	i := h.lb.Find(ref.IP)
	if i < 0 {
		return
	}
	e := h.lb.At(i)
	h.strideCore.squash(&e.stride)
	h.capCore.squash(&e.cap)
}
