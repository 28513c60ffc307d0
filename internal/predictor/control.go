package predictor

// Control-based address predictors (§3.6). The paper evaluates two
// branch-predictor-like designs — indexing a table of addresses with the
// load IP xored with either the global branch history (g-share style) or
// a path history over recent call sites — and finds both too weak to
// substitute for CAP. They are reproduced here as that negative result.

// ControlConfig configures a control-based address predictor.
type ControlConfig struct {
	Entries       int // table entries (power of two)
	HistBits      int // history bits xored into the index
	UsePath       bool
	ConfMax       uint8
	ConfThreshold uint8
}

// DefaultControlConfig matches the CAP table budget for a fair comparison.
func DefaultControlConfig(usePath bool) ControlConfig {
	return ControlConfig{
		Entries: 8192, HistBits: 8, UsePath: usePath,
		ConfMax: 3, ConfThreshold: 2,
	}
}

type controlEntry struct {
	addr  uint32
	conf  uint8
	valid bool
}

// Control is a g-share-style (or call-path-style) address predictor.
type Control struct {
	cfg  ControlConfig
	tab  []controlEntry
	mask uint32
	hmsk uint32
}

// NewControl builds a control-based address predictor.
func NewControl(cfg ControlConfig) *Control {
	CheckPow2("predictor: control table entries", cfg.Entries)
	return &Control{
		cfg:  cfg,
		tab:  make([]controlEntry, cfg.Entries),
		mask: uint32(cfg.Entries - 1),
		hmsk: uint32(1)<<uint(cfg.HistBits) - 1,
	}
}

// Name implements Predictor.
func (c *Control) Name() string {
	if c.cfg.UsePath {
		return "path-addr"
	}
	return "gshare-addr"
}

func (c *Control) index(ref LoadRef) uint32 {
	h := ref.GHR
	if c.cfg.UsePath {
		h = ref.Path
	}
	return (ref.IP>>2 ^ h&c.hmsk) & c.mask
}

// Predict implements Predictor.
func (c *Control) Predict(ref LoadRef) Prediction {
	e := &c.tab[c.index(ref)]
	if !e.valid {
		return Prediction{}
	}
	return Prediction{
		Addr:      e.addr,
		Predicted: true,
		Speculate: e.conf >= c.cfg.ConfThreshold,
	}
}

// Resolve implements Predictor.
func (c *Control) Resolve(ref LoadRef, p Prediction, actual uint32) {
	e := &c.tab[c.index(ref)]
	if e.valid && e.addr == actual {
		e.conf = SatInc(e.conf, c.cfg.ConfMax)
	} else {
		e.conf = 0
	}
	e.addr = actual
	e.valid = true
}
