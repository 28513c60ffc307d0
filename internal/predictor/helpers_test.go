package predictor

import "testing"

// access is one dynamic load for the test driver.
type access struct {
	ref  LoadRef
	addr uint32
}

// ld builds a simple access.
func ld(ip, addr uint32, offset int32) access {
	return access{ref: LoadRef{IP: ip, Offset: offset}, addr: addr}
}

// result aggregates driver outcomes.
type result struct {
	loads       int
	predicted   int
	speculated  int
	correct     int // correct among predicted
	specCorrect int // correct among speculated
	mispred     int // wrong among speculated
}

func (r result) accuracy() float64 {
	if r.speculated == 0 {
		return 0
	}
	return float64(r.specCorrect) / float64(r.speculated)
}

// run drives the predictor in immediate-update mode (§4): each prediction
// is resolved before the next one is made.
func run(p Predictor, seq []access) result {
	var r result
	for _, a := range seq {
		pr := p.Predict(a.ref)
		r.loads++
		if pr.Predicted {
			r.predicted++
			if pr.Addr == a.addr {
				r.correct++
			}
		}
		if pr.Speculate {
			r.speculated++
			if pr.Addr == a.addr {
				r.specCorrect++
			} else {
				r.mispred++
			}
		}
		p.Resolve(a.ref, pr, a.addr)
	}
	return r
}

// repeatSeq repeats a sequence n times.
func repeatSeq(seq []access, n int) []access {
	out := make([]access, 0, len(seq)*n)
	for i := 0; i < n; i++ {
		out = append(out, seq...)
	}
	return out
}

// listWalk builds the §2.1 linked-list pattern: one static load (ip)
// visiting bases in order, each with the given field offset.
func listWalk(ip uint32, bases []uint32, offset int32) []access {
	seq := make([]access, len(bases))
	for i, b := range bases {
		seq[i] = ld(ip, b+uint32(offset), offset)
	}
	return seq
}

func wantAtLeast(t *testing.T, name string, got, want int) {
	t.Helper()
	if got < want {
		t.Errorf("%s = %d, want at least %d", name, got, want)
	}
}

func wantZero(t *testing.T, name string, got int) {
	t.Helper()
	if got != 0 {
		t.Errorf("%s = %d, want 0", name, got)
	}
}

// stateOf returns the per-load state a stand-alone predictor keeps for
// ip, or nil when ip holds no LB entry. T is the entrant's column type.
func stateOf[T any](p *Standalone, ip uint32) *T {
	i := p.c.lb.Find(ip)
	if i < 0 {
		return nil
	}
	return p.c.e.(interface{ At(int) *T }).At(i)
}
