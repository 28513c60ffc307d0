package predictor

// Entrant is a component predictor whose per-load state lives in a
// column indexed by load-buffer slot rather than in a load buffer of
// its own. The composer owns the one load buffer: Single for an entrant
// alone, the tournament (internal/predictor/tournament) for N of them.
// It probes the buffer once per operation and hands every entrant the
// same slot, so an LB entry holds each component's fields side by side,
// as the hybrid's shared entries do (§3.7). An entrant serves one
// composer: its column is sized to that composer's LB.
//
// Predict computes the component's opinion for a dynamic load,
// advancing speculative state when the entrant was built speculative;
// Resolve verifies it against the actual address and trains; Squash
// undoes Predict's in-flight bookkeeping for a flushed wrong-path
// prediction (§5.4, youngest first). Resolutions arrive in prediction
// order, as under a pipeline gap.
type Entrant interface {
	// ID identifies the component in Prediction.Selected.
	ID() Component
	// Name returns the display name used in tables and metrics labels.
	Name() string
	// SetSlots sizes the state column to the composer's LB entries.
	SetSlots(n int)
	// Reset clears a slot the LB has just allocated to a new load.
	Reset(slot int)
	Predict(slot int, ref LoadRef) ComponentPrediction
	Resolve(slot int, ref LoadRef, cp ComponentPrediction, speculated bool, actual uint32)
	Squash(slot int, ref LoadRef, cp ComponentPrediction)
}

// Slots is an entrant's state column, one T per LB slot. Embedding it
// provides the SetSlots and Reset halves of Entrant.
type Slots[T any] struct {
	col []T
}

// SetSlots implements Entrant.
func (s *Slots[T]) SetSlots(n int) { s.col = make([]T, n) }

// Reset implements Entrant.
func (s *Slots[T]) Reset(slot int) {
	var zero T
	s.col[slot] = zero
}

// At returns the state held in a slot.
func (s *Slots[T]) At(slot int) *T { return &s.col[slot] }

// Single runs one entrant over a load buffer of its own, at component
// granularity. The entry is allocated at prediction time, so in-flight
// instance counts are exact in pipelined mode.
type Single struct {
	e  Entrant
	lb *LBTable[struct{}]
}

// NewSingle builds the adapter over an entries × ways load buffer.
func NewSingle(e Entrant, entries, ways int) *Single {
	e.SetSlots(entries)
	return &Single{e: e, lb: NewLBTable[struct{}](entries, ways)}
}

// ID identifies the component in Prediction.Selected.
func (s *Single) ID() Component { return s.e.ID() }

// Name returns the component's display name.
func (s *Single) Name() string { return s.e.Name() }

// slot returns ip's slot, allocating and resetting it if absent.
func (s *Single) slot(ip uint32) int {
	i, existed := s.lb.Alloc(ip)
	if !existed {
		s.e.Reset(i)
	}
	return i
}

// Predict computes the component's opinion for the load.
func (s *Single) Predict(ref LoadRef) ComponentPrediction {
	return s.e.Predict(s.slot(ref.IP), ref)
}

// Resolve verifies the component's opinion and updates its state.
func (s *Single) Resolve(ref LoadRef, cp ComponentPrediction, speculated bool, actual uint32) {
	s.e.Resolve(s.slot(ref.IP), ref, cp, speculated, actual)
}

// Squash undoes Predict's in-flight bookkeeping for a flushed
// prediction (§5.4 wrong-path recovery).
func (s *Single) Squash(ref LoadRef, cp ComponentPrediction) {
	if i := s.lb.Find(ref.IP); i >= 0 {
		s.e.Squash(i, ref, cp)
	}
}

// Standalone is one component run as a full Predictor: its opinion is
// the prediction, speculated when confident. NewStride and NewLast
// return it; NewCAP returns it with CAP's look-ahead.
type Standalone struct {
	c *Single
}

// Name implements Predictor.
func (s *Standalone) Name() string { return s.c.Name() }

// Predict implements Predictor.
func (s *Standalone) Predict(ref LoadRef) Prediction {
	cp := s.c.Predict(ref)
	return Prediction{Addr: cp.Addr, Predicted: cp.Predicted, Speculate: cp.Confident, Selected: s.c.ID()}
}

// opinion recovers the component's opinion from its prediction.
func opinion(p Prediction) ComponentPrediction {
	return ComponentPrediction{Addr: p.Addr, Predicted: p.Predicted, Confident: p.Speculate}
}

// Resolve implements Predictor.
func (s *Standalone) Resolve(ref LoadRef, p Prediction, actual uint32) {
	s.c.Resolve(ref, opinion(p), p.Speculate, actual)
}

// Squash implements Squasher: the prediction was made on a wrong path
// and will never resolve.
func (s *Standalone) Squash(ref LoadRef, p Prediction) {
	s.c.Squash(ref, opinion(p))
}
