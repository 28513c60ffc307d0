package tournament

import (
	"testing"

	"capred/internal/pipeline"
	"capred/internal/predictor"
)

// smallPair builds the hybrid and its two-way tournament replica over
// deliberately tiny tables (a 64-entry LB, a 64-entry LT with 4-bit
// tags) so streams over more static loads than the LB holds exercise
// collisions, evictions and selector saturation quickly. Both sides get
// identical component configurations; the tournament's one LB takes
// the hybrid's geometry.
func smallPair(speculative bool) (*predictor.Hybrid, *Tournament) {
	hc := predictor.DefaultHybridConfig()
	hc.CAP.LBEntries = 64
	hc.CAP.LBWays = 2
	hc.CAP.LTEntries = 64
	hc.CAP.TagBits = 4
	hc.CAP.PFTableEntries = 256
	hc.Speculative = speculative

	sc := hc.Stride
	sc.Speculative = speculative
	cc := hc.CAP
	cc.Speculative = speculative
	tour := New(Config{
		Entries:    hc.CAP.LBEntries,
		Ways:       hc.CAP.LBWays,
		CounterMax: 3,
	}, predictor.NewStrideEntrant(sc), predictor.NewCAPEntrant(cc))
	return predictor.NewHybrid(hc), tour
}

// diffStep compares two predictions field for field.
func diffStep(t *testing.T, step int, ph, pt predictor.Prediction) {
	t.Helper()
	if ph != pt {
		t.Fatalf("step %d: tournament diverged from hybrid:\nhybrid     %+v\ntournament %+v", step, ph, pt)
	}
}

// FuzzTournamentSelector is the differential fuzzer of the equivalence
// claim: a two-way tournament configured as stride+CAP is
// decision-identical to the paper's Hybrid — same chosen component,
// same selector state, same confidence gating — in immediate mode and
// under a prediction gap with wrong-path squashes mixed in.
func FuzzTournamentSelector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0xFF, 0x80, 0x40, 0x20})
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i*61 + 7)
	}
	f.Add(seed)
	// Four static loads that share one LB set of two ways: from the
	// third step on, every load evicts another.
	evict := make([]byte, 0, 150)
	for i := 0; i < 30; i++ {
		evict = append(evict, byte(i%4)*0x20, byte(i/4), byte(i*8), byte(i*37), byte(i*11))
	}
	f.Add(evict)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, gap := range []int{0, 4} {
			h, tour := smallPair(gap > 0)
			gh := pipeline.New(h, gap)
			gt := pipeline.New(tour, gap)
			var ghr predictor.GHR
			var path predictor.PathHist
			in := data
			for step := 0; len(in) >= 5; step++ {
				// 256 static loads over the 64-entry LB force evictions,
				// while low-entropy addresses make strides, repeats and
				// collisions all common; two control bits drive history
				// updates and one triggers a wrong-path squash.
				ip := uint32(in[0]) * 4
				addr := uint32(in[1])<<4 | uint32(in[2])
				offset := int32(in[3] & 0x3F)
				ghr.Update(in[3]&0x80 != 0)
				if in[3]&0x40 != 0 {
					path.Push(ip)
				}
				squash := in[4]&0x30 == 0x30
				in = in[5:]

				ref := predictor.LoadRef{IP: ip, Offset: offset, GHR: ghr.Value(), Path: path.Value()}
				diffStep(t, step, gh.Process(ref, addr), gt.Process(ref, addr))
				if squash {
					if nh, nt := gh.SquashNewest(1), gt.SquashNewest(1); nh != nt {
						t.Fatalf("step %d: squashed %d vs %d", step, nh, nt)
					}
				}
			}
			gh.Drain()
			gt.Drain()
			// The drained state must agree too: one more prediction per
			// static load compares the post-drain tables.
			for ip := uint32(0); ip < 256; ip++ {
				ref := predictor.LoadRef{IP: ip * 4, GHR: ghr.Value(), Path: path.Value()}
				diffStep(t, -1, gh.Process(ref, 0x1234), gt.Process(ref, 0x1234))
			}
		}
	})
}

// TestPaperPairMatchesHybrid pins the equivalence deterministically on
// a longer structured stream than fuzzing reaches: 256 static loads
// over the 64-entry LB (so entries are evicted and re-allocated all the
// time), a gap deeper than the tournament's initial in-flight ring (so
// ring growth is exercised) and periodic squashes.
func TestPaperPairMatchesHybrid(t *testing.T) {
	for _, gap := range []int{0, 4, 40} {
		h, tour := smallPair(gap > 0)
		gh := pipeline.New(h, gap)
		gt := pipeline.New(tour, gap)
		var ghr predictor.GHR
		var path predictor.PathHist
		rng := uint32(0x9E3779B9)
		next := func() uint32 { // xorshift: deterministic, seedless
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			return rng
		}
		for step := 0; step < 20_000; step++ {
			r := next()
			ip := (r & 0xFF) * 4
			var addr uint32
			switch r >> 30 {
			case 0: // strided
				addr = 0x1000 + uint32(step)*8
			case 1: // repeating walk
				addr = 0x8000 + (uint32(step)%7)*0x40
			default: // noise
				addr = next() & 0xFFFF
			}
			ghr.Update(r&0x100 != 0)
			if r&0x200 != 0 {
				path.Push(ip)
			}
			ref := predictor.LoadRef{IP: ip, Offset: int32(r >> 8 & 0x3F), GHR: ghr.Value(), Path: path.Value()}
			ph, pt := gh.Process(ref, addr), gt.Process(ref, addr)
			if ph != pt {
				t.Fatalf("gap %d step %d: hybrid %+v tournament %+v", gap, step, ph, pt)
			}
			if gap > 0 && r&0xF000 == 0xF000 {
				gh.SquashNewest(2)
				gt.SquashNewest(2)
			}
		}
		gh.Drain()
		gt.Drain()
	}
}
