package predictor

// LastConfig configures the last-address predictor used as the paper's
// first baseline (§1: "last-address predictors surprisingly handle an
// average of 40% of all load addresses").
type LastConfig struct {
	Entries       int   // total LB entries (power of two)
	Ways          int   // associativity (power of two)
	ConfMax       uint8 // saturating-counter ceiling
	ConfThreshold uint8 // counter value required to speculate
}

// DefaultLastConfig mirrors the baseline table geometry of §4.2.
func DefaultLastConfig() LastConfig {
	return LastConfig{Entries: 4096, Ways: 2, ConfMax: 3, ConfThreshold: 2}
}

type lastEntry struct {
	last uint32
	have bool
	conf uint8
}

// lastEntrant is the last-address predictor as a tournament entrant.
// Predict reads the architectural last address without mutating it, so
// the entrant is sound under a prediction gap as well: there is no
// speculative state to maintain or squash.
type lastEntrant struct {
	Slots[lastEntry]
	cfg LastConfig
}

// NewLastEntrant builds the last-address entrant. The LB geometry
// fields of cfg are not used: the composer's load buffer indexes the
// column.
func NewLastEntrant(cfg LastConfig) Entrant { return &lastEntrant{cfg: cfg} }

func (l *lastEntrant) ID() Component { return CompLast }

func (l *lastEntrant) Name() string { return "last" }

func (l *lastEntrant) Predict(slot int, _ LoadRef) ComponentPrediction {
	e := &l.col[slot]
	if !e.have {
		return ComponentPrediction{}
	}
	return ComponentPrediction{
		Addr:      e.last,
		Predicted: true,
		Confident: e.conf >= l.cfg.ConfThreshold,
	}
}

// Resolve updates the last address and its confidence counter.
func (l *lastEntrant) Resolve(slot int, _ LoadRef, _ ComponentPrediction, _ bool, actual uint32) {
	e := &l.col[slot]
	if e.have && e.last == actual {
		e.conf = SatInc(e.conf, l.cfg.ConfMax)
	} else {
		e.conf = 0
	}
	e.last = actual
	e.have = true
}

func (l *lastEntrant) Squash(int, LoadRef, ComponentPrediction) {}

// NewLast builds the last-address predictor: it speculates that a
// static load's next address equals its previous one.
func NewLast(cfg LastConfig) *Standalone {
	return &Standalone{c: NewSingle(NewLastEntrant(cfg), cfg.Entries, cfg.Ways)}
}
