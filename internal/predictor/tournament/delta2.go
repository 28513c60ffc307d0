package tournament

import "capred/internal/predictor"

// Delta2Config configures the delta-delta (acceleration) component:
// per static load it tracks the first and second difference of the
// address stream and predicts addr + Δ + ΔΔ. On streams whose second
// difference is constant — quadratic index expressions, triangular
// loop nests, growing-record appends — the prediction is exact where a
// plain stride predictor re-trains on every step.
type Delta2Config struct {
	ConfMax       uint8
	ConfThreshold uint8
	Speculative   bool
}

// DefaultDelta2Config uses the paper's 2-bit confidence counters (§4.2).
func DefaultDelta2Config() Delta2Config {
	return Delta2Config{ConfMax: 3, ConfThreshold: 2}
}

// delta2State is the per-static-load state, one per LB slot.
type delta2State struct {
	last uint32 // architectural last address
	have bool
	d1   int32 // last first-difference
	d2   int32 // last second-difference
	nd   uint8 // differences accumulated, saturating at 2 (warm-up)
	conf uint8

	// Speculative (pipelined) state: specLast/specD1 are the address
	// and first-difference of the most recently predicted instance. The
	// closed-form catch-up (§5.2 generalized to second order) restores
	// them after a misprediction without waiting for the drain.
	specLast  uint32
	specD1    int32
	specValid bool
	pending   uint16
}

// Delta2 is the delta-delta (acceleration) entrant.
type Delta2 struct {
	predictor.Slots[delta2State]
	cfg Delta2Config
}

// NewDelta2 builds the delta-delta entrant.
func NewDelta2(cfg Delta2Config) *Delta2 {
	return &Delta2{cfg: cfg}
}

// ID identifies the component in Prediction.Selected.
func (d *Delta2) ID() predictor.Component { return predictor.CompDelta2 }

// Name returns the component's display name.
func (d *Delta2) Name() string { return "delta2" }

func (d *Delta2) predictFrom(st *delta2State, last uint32, d1 int32, valid bool) predictor.ComponentPrediction {
	if !valid {
		return predictor.ComponentPrediction{}
	}
	return predictor.ComponentPrediction{
		Addr:      last + uint32(d1+st.d2),
		Predicted: true,
		Confident: st.conf >= d.cfg.ConfThreshold,
	}
}

// Predict computes the component's opinion. In speculative mode the
// accelerating sequence is extrapolated across the pending window: each
// prediction advances the speculative first-difference by the
// architectural second-difference.
func (d *Delta2) Predict(slot int, ref predictor.LoadRef) predictor.ComponentPrediction {
	st := d.At(slot)
	if !d.cfg.Speculative {
		return d.predictFrom(st, st.last, st.d1, st.nd >= 2)
	}
	if st.pending == 0 {
		st.specLast, st.specD1, st.specValid = st.last, st.d1, st.nd >= 2
	}
	cp := d.predictFrom(st, st.specLast, st.specD1, st.specValid)
	if cp.Predicted {
		st.specD1 += st.d2
		st.specLast = cp.Addr
	}
	st.pending++
	return cp
}

// Resolve verifies the opinion and updates the difference chain.
func (d *Delta2) Resolve(slot int, ref predictor.LoadRef, cp predictor.ComponentPrediction, speculated bool, actual uint32) {
	st := d.At(slot)
	if d.cfg.Speculative && st.pending > 0 {
		st.pending--
	}
	correct := cp.Predicted && cp.Addr == actual
	if cp.Predicted {
		if correct {
			st.conf = predictor.SatInc(st.conf, d.cfg.ConfMax)
		} else {
			st.conf = 0
		}
	}

	if st.have {
		nd1 := int32(actual - st.last)
		if st.nd == 0 {
			st.d1, st.nd = nd1, 1
		} else {
			st.d2 = nd1 - st.d1
			st.d1 = nd1
			st.nd = 2
		}
	}
	st.last = actual
	st.have = true

	if d.cfg.Speculative {
		if st.pending == 0 {
			st.specLast, st.specD1, st.specValid = st.last, st.d1, st.nd >= 2
		} else if !correct || !st.specValid {
			// Catch-up: extrapolate the quadratic over the pending
			// unresolved instances so the next prediction lands
			// correctly instead of waiting for the window to drain.
			if st.nd >= 2 {
				a, d1 := st.last, st.d1
				for i := uint16(0); i < st.pending; i++ {
					d1 += st.d2
					a += uint32(d1)
				}
				st.specLast, st.specD1, st.specValid = a, d1, true
			} else {
				st.specValid = false
			}
		}
	}
}

// Squash undoes Predict's in-flight bookkeeping; like the stride
// component, the speculative chain is invalidated and re-established by
// catch-up at the next resolution.
func (d *Delta2) Squash(slot int, ref predictor.LoadRef, cp predictor.ComponentPrediction) {
	if !d.cfg.Speculative {
		return
	}
	st := d.At(slot)
	if st.pending > 0 {
		st.pending--
	}
	st.specValid = false
	if st.pending == 0 {
		st.specLast, st.specD1, st.specValid = st.last, st.d1, st.nd >= 2
	}
}
