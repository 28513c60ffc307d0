// Package predictor implements the load-address predictors from
// "Correlated Load-Address Predictors" (Bekerman et al., ISCA 1999):
// a last-address predictor, a basic and an enhanced stride predictor, the
// correlated context-based address predictor (CAP), the hybrid CAP/stride
// predictor with a dynamic selector, and the control-based (g-share and
// call-path) predictors the paper evaluates as a negative result.
//
// All predictors implement the Predictor interface. Two resolution
// disciplines are supported with the same code:
//
//   - Immediate mode (§4 of the paper): call Predict, then immediately
//     Resolve with the actual address. Predict does not mutate state.
//   - Pipelined mode (§5): construct the predictor with Speculative set,
//     interpose internal/pipeline.Gap, and Resolve is called a
//     prediction-gap worth of loads later. Predict advances speculative
//     state; Resolve repairs it on mispredictions.
package predictor

import "fmt"

// LoadRef identifies a dynamic load at prediction time: everything the
// front end knows before the effective address is computed.
type LoadRef struct {
	IP     uint32 // static instruction address
	Offset int32  // immediate displacement from the instruction opcode
	GHR    uint32 // snapshot of the global branch-history register
	Path   uint32 // snapshot of the call-path history register
}

// Component identifies which component predictor produced an address.
// The zero value means none; values beyond the paper's hybrid pair name
// the tournament entrants (internal/predictor/tournament).
type Component uint8

// Component predictors known to the package and its composers.
const (
	CompNone Component = iota
	CompStride
	CompCAP
	CompLast
	CompMarkov
	CompDelta2
	CompCallPath
	numComponents // sentinel; keep last
)

// componentNames is the single open name table: every display surface —
// classification breakdowns, selector-state names, /metrics labels —
// derives component names from here (via the component's own ID) rather
// than a closed stride/cap switch, so new entrants render correctly.
var componentNames = [numComponents]string{
	CompNone:     "none",
	CompStride:   "stride",
	CompCAP:      "cap",
	CompLast:     "last",
	CompMarkov:   "markov",
	CompDelta2:   "delta2",
	CompCallPath: "callpath",
}

// String returns the component name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "invalid"
}

// ComponentPrediction is one side's opinion inside a hybrid prediction.
type ComponentPrediction struct {
	Addr      uint32
	Predicted bool // the component produced an address
	Confident bool // ... with enough confidence for a speculative access
}

// Prediction is the outcome of Predict for one dynamic load.
//
// Predicted means an address was produced (the paper: "on a LB hit, a
// load-address prediction is always performed"). Speculate means the
// confidence mechanisms all agreed, so a speculative cache access would be
// launched; only speculated predictions can cost a misprediction.
type Prediction struct {
	Addr      uint32
	Predicted bool
	Speculate bool

	// Hybrid detail, used by the selector-performance experiment (Fig. 8).
	Selected Component
	SelState uint8 // selector counter state at prediction time
	Stride   ComponentPrediction
	CAP      ComponentPrediction
}

// Correct reports whether the prediction produced the actual address.
func (p Prediction) Correct(actual uint32) bool {
	return p.Predicted && p.Addr == actual
}

// Mispredicted reports whether a speculative access was launched with a
// wrong address — the costly case.
func (p Prediction) Mispredicted(actual uint32) bool {
	return p.Speculate && p.Addr != actual
}

// Predictor is a load-address predictor.
type Predictor interface {
	// Predict produces a prediction for the load. In speculative mode it
	// also advances the predictor's speculative state.
	Predict(ref LoadRef) Prediction
	// Resolve verifies a previous prediction against the actual effective
	// address and updates the prediction tables. In pipelined operation
	// resolutions arrive in prediction order.
	Resolve(ref LoadRef, p Prediction, actual uint32)
	// Name returns a short identifier for reports.
	Name() string
}

// Squasher is implemented by predictors that support wrong-path recovery
// (§5.4): a prediction made on a mispredicted control path is flushed
// before it ever resolves. Squash undoes the in-flight bookkeeping of
// Predict — the paper's "reorder buffer-like or history buffer recovery
// mechanism ... to prevent destructive updates". Squashes must arrive in
// reverse prediction order (youngest first), as a pipeline flush does.
type Squasher interface {
	Squash(ref LoadRef, p Prediction)
}

// GHR is the global branch-history register: a shift register of recent
// branch outcomes, most recent in bit 0.
type GHR struct {
	bits uint32
}

// Update shifts the latest branch outcome into the register.
func (g *GHR) Update(taken bool) {
	g.bits <<= 1
	if taken {
		g.bits |= 1
	}
}

// Bits returns the n least-significant history bits.
func (g *GHR) Bits(n int) uint32 {
	if n <= 0 {
		return 0
	}
	if n >= 32 {
		return g.bits
	}
	return g.bits & (1<<uint(n) - 1)
}

// Value returns the full register.
func (g *GHR) Value() uint32 { return g.bits }

// PathHist is the call-path history register used by the control-based
// predictors: a hash over the instruction pointers of recent call sites.
type PathHist struct {
	bits uint32
}

// Push mixes a call-site IP into the path history.
func (p *PathHist) Push(ip uint32) {
	p.bits = p.bits<<3 ^ ip>>2
}

// Value returns the current path hash.
func (p *PathHist) Value() uint32 { return p.bits }

// Log2 returns floor(log2(n)) for n ≥ 1.
func Log2(n int) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// CheckPow2 panics unless n is a positive power of two; table geometries
// in this package and its entrant packages are all power-of-two. name
// identifies the field, prefixed with the caller's package (e.g.
// "predictor: LB entries"), and leads the panic text.
func CheckPow2(name string, n int) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("%s must be a positive power of two, got %d", name, n))
	}
}

// SatInc increments a saturating counter bounded by max.
func SatInc(c, max uint8) uint8 {
	if c < max {
		return c + 1
	}
	return c
}

// SatDec decrements a saturating counter bounded below by zero.
func SatDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}
