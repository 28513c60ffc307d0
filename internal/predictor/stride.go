package predictor

// StrideConfig configures the stride predictor. The paper's "enhanced"
// stride predictor (§4.2, §5.3) adds the interval technique and
// control-flow indications to the classic stride scheme; both are
// disabled for the basic variant.
type StrideConfig struct {
	Entries       int
	Ways          int
	ConfMax       uint8
	ConfThreshold uint8
	Interval      bool     // record array length, stop speculating past it
	CF            CFConfig // control-flow indications (0 bits = off)
	Speculative   bool     // pipelined (prediction-gap) operation
}

// DefaultStrideConfig returns the enhanced stride predictor of §4.2:
// 4K-entry 2-way LB, interval counters and control-flow indications on.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{
		Entries: 4096, Ways: 2,
		ConfMax: 3, ConfThreshold: 2,
		Interval: true,
		CF:       CFConfig{Bits: 4, Table: true},
	}
}

// BasicStrideConfig returns the classic stride predictor with no
// enhancements, for the baseline table of §1.
func BasicStrideConfig() StrideConfig {
	cfg := DefaultStrideConfig()
	cfg.Interval = false
	cfg.CF = CFConfig{}
	return cfg
}

// strideState is the per-static-load stride prediction state kept in a
// load-buffer entry. It is shared verbatim by the hybrid predictor.
type strideState struct {
	last   uint32 // architectural last address
	stride int32
	have   bool // last is valid
	haveSt bool // stride is valid (second occurrence seen)
	conf   uint8

	// Interval technique: interval is the learned run length (number of
	// consecutive same-stride accesses before the last break); run counts
	// the current streak. The interval only gates speculation once two
	// consecutive runs agree (intConf), so a one-off data-dependent glitch
	// does not poison a long array's learned length.
	interval uint16
	run      uint16
	intConf  bool

	cf cfInd

	// Speculative (pipelined) state.
	pending   uint16 // predictions awaiting resolution
	specLast  uint32 // address of the most recently predicted instance
	specValid bool
}

// strideCore implements prediction/resolution over a strideState. The
// Hybrid predictor embeds it and passes the states of its own entries;
// as an Entrant it keeps one state per LB slot in its column.
type strideCore struct {
	Slots[strideState]
	cfg StrideConfig
}

// predict computes this component's opinion for the load. It advances
// speculative state when the core runs in speculative mode.
func (c *strideCore) predict(st *strideState, ref LoadRef) ComponentPrediction {
	if !c.cfg.Speculative {
		return c.predictFrom(st, st.last, st.have, ref)
	}
	if st.pending == 0 {
		st.specLast, st.specValid = st.last, st.have
	}
	cp := c.predictFrom(st, st.specLast, st.specValid, ref)
	if cp.Predicted {
		st.specLast = cp.Addr
	}
	st.pending++
	return cp
}

func (c *strideCore) predictFrom(st *strideState, base uint32, haveBase bool, ref LoadRef) ComponentPrediction {
	if !haveBase {
		return ComponentPrediction{}
	}
	addr := base + uint32(st.stride)
	confident := st.conf >= c.cfg.ConfThreshold &&
		st.cf.allow(c.cfg.CF, ref.GHR) &&
		c.intervalAllows(st)
	return ComponentPrediction{Addr: addr, Predicted: true, Confident: confident}
}

// intervalAllows applies the interval technique: once the learned array
// length is reached, trade a likely misprediction for a no-prediction.
func (c *strideCore) intervalAllows(st *strideState) bool {
	if !c.cfg.Interval || st.interval == 0 || !st.intConf {
		return true
	}
	return st.run < st.interval
}

// resolve verifies this component's part of a prediction and updates the
// architectural (and, on mispredictions, speculative) state.
func (c *strideCore) resolve(st *strideState, cp ComponentPrediction, speculated bool, ref LoadRef, actual uint32) {
	if c.cfg.Speculative && st.pending > 0 {
		st.pending--
	}
	correct := cp.Predicted && cp.Addr == actual

	// Confidence and control-flow indications reflect prediction outcome.
	if cp.Predicted {
		if correct {
			st.conf = SatInc(st.conf, c.cfg.ConfMax)
		} else {
			st.conf = 0
		}
		st.cf.record(c.cfg.CF, ref.GHR, correct, speculated)
	}

	// Architectural stride update.
	if st.have {
		delta := int32(actual - st.last)
		if st.haveSt && delta == st.stride {
			if st.run < ^uint16(0) {
				st.run++
			}
		} else {
			// Stride break: learn the interval, restart the streak. The
			// interval is confirmed only when two consecutive runs agree
			// (within one element).
			if c.cfg.Interval && st.run > 0 {
				d := int(st.run) - int(st.interval)
				st.intConf = st.interval > 0 && d >= -1 && d <= 1
				st.interval = st.run
			}
			st.run = 0
			st.stride = delta
			st.haveSt = true
		}
	}
	st.last = actual
	st.have = true

	if c.cfg.Speculative {
		if st.pending == 0 {
			st.specLast, st.specValid = st.last, st.have
		} else if !correct || !st.specValid {
			// Catch-up (§5.2): extrapolate the stride over the pending
			// unresolved instances so the next prediction lands
			// correctly, instead of waiting for the window to drain.
			if st.haveSt {
				st.specLast = actual + uint32(st.stride)*uint32(st.pending)
				st.specValid = true
			} else {
				st.specValid = false
			}
		}
	}
}

// squash undoes Predict's in-flight bookkeeping for a flushed prediction.
// The speculative last-address cannot be rewound precisely (the flushed
// prediction already advanced it), so it is invalidated; the catch-up
// path re-establishes it at the next resolution.
func (c *strideCore) squash(st *strideState) {
	if !c.cfg.Speculative {
		return
	}
	if st.pending > 0 {
		st.pending--
	}
	st.specValid = false
	if st.pending == 0 {
		st.specLast, st.specValid = st.last, st.have
	}
}

// NewStrideEntrant builds the stride entrant. The LB geometry fields of
// cfg are not used: the composer's load buffer indexes the column.
func NewStrideEntrant(cfg StrideConfig) Entrant { return &strideCore{cfg: cfg} }

func (c *strideCore) ID() Component { return CompStride }

func (c *strideCore) Name() string {
	if c.cfg.Interval || c.cfg.CF.enabled() {
		return "stride+"
	}
	return "stride"
}

func (c *strideCore) Predict(slot int, ref LoadRef) ComponentPrediction {
	return c.predict(&c.col[slot], ref)
}

func (c *strideCore) Resolve(slot int, ref LoadRef, cp ComponentPrediction, speculated bool, actual uint32) {
	c.resolve(&c.col[slot], cp, speculated, ref, actual)
}

func (c *strideCore) Squash(slot int, _ LoadRef, _ ComponentPrediction) {
	c.squash(&c.col[slot])
}

// NewStride builds the stand-alone stride predictor over a
// cfg.Entries × cfg.Ways load buffer.
func NewStride(cfg StrideConfig) *Standalone {
	return &Standalone{c: NewSingle(NewStrideEntrant(cfg), cfg.Entries, cfg.Ways)}
}
