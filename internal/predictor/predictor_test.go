package predictor

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestGHR(t *testing.T) {
	var g GHR
	g.Update(true)
	g.Update(false)
	g.Update(true)
	g.Update(true)
	// Most recent in bit 0: 1,1,0,1 -> 0b1011.
	if got := g.Bits(4); got != 0b1011 {
		t.Errorf("Bits(4) = %04b, want 1011", got)
	}
	if got := g.Bits(2); got != 0b11 {
		t.Errorf("Bits(2) = %02b, want 11", got)
	}
	if got := g.Bits(0); got != 0 {
		t.Errorf("Bits(0) = %d, want 0", got)
	}
	if got := g.Bits(64); got != g.Value() {
		t.Errorf("Bits(64) = %x, want full value %x", got, g.Value())
	}
}

func TestPathHistChanges(t *testing.T) {
	var p PathHist
	v0 := p.Value()
	p.Push(0x400100)
	if p.Value() == v0 {
		t.Error("Push did not change path history")
	}
	v1 := p.Value()
	p.Push(0x500200)
	if p.Value() == v1 {
		t.Error("second Push did not change path history")
	}
}

func TestPathHistOrderSensitive(t *testing.T) {
	var a, b PathHist
	a.Push(0x100)
	a.Push(0x200)
	b.Push(0x200)
	b.Push(0x100)
	if a.Value() == b.Value() {
		t.Error("path history should be order sensitive")
	}
}

func TestPredictionCorrectAndMispredicted(t *testing.T) {
	p := Prediction{Addr: 100, Predicted: true, Speculate: true}
	if !p.Correct(100) || p.Correct(101) {
		t.Error("Correct misbehaves")
	}
	if p.Mispredicted(100) || !p.Mispredicted(101) {
		t.Error("Mispredicted misbehaves")
	}
	np := Prediction{}
	if np.Correct(0) {
		t.Error("unpredicted load cannot be correct")
	}
	if np.Mispredicted(0) {
		t.Error("non-speculated load cannot mispredict")
	}
}

func TestSatCounters(t *testing.T) {
	var c uint8
	for i := 0; i < 10; i++ {
		c = SatInc(c, 3)
	}
	if c != 3 {
		t.Errorf("SatInc saturation: got %d, want 3", c)
	}
	for i := 0; i < 10; i++ {
		c = SatDec(c)
	}
	if c != 0 {
		t.Errorf("SatDec floor: got %d, want 0", c)
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]uint{1: 0, 2: 1, 4: 2, 4096: 12, 8192: 13}
	for n, want := range cases {
		if got := Log2(n); got != want {
			t.Errorf("Log2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCheckPow2Panics(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 4095} {
		func() {
			defer func() {
				// The panic text leads with the caller's package and field.
				want := fmt.Sprintf("tournament: x must be a positive power of two, got %d", n)
				if r := recover(); r != want {
					t.Errorf("CheckPow2(%d) panicked with %v, want %q", n, r, want)
				}
			}()
			CheckPow2("tournament: x", n)
		}()
	}
	// Must not panic for powers of two.
	CheckPow2("predictor: x", 1)
	CheckPow2("predictor: x", 4096)
}

func TestComponentString(t *testing.T) {
	if CompStride.String() != "stride" || CompCAP.String() != "cap" || CompNone.String() != "none" {
		t.Error("Component.String wrong")
	}
}

// Property: GHR.Bits is always a sub-mask of Value.
func TestGHRBitsProperty(t *testing.T) {
	f := func(updates []bool, n uint8) bool {
		var g GHR
		for _, u := range updates {
			g.Update(u)
		}
		k := int(n % 33)
		bits := g.Bits(k)
		if k >= 32 {
			return bits == g.Value()
		}
		return bits == g.Value()&(1<<uint(k)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
