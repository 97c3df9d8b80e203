package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("diverged at step %d", i)
		}
	}
}

func TestRNGSeedZeroRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("degenerate zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(5)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(11)
	f := func(_ uint8) bool {
		base := Time(10000)
		v := r.Jitter(base, 0.05)
		return v >= 9500 && v <= 10500
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterZeroFrac(t *testing.T) {
	r := NewRNG(1)
	if r.Jitter(1234, 0) != 1234 {
		t.Fatal("zero-frac jitter must be identity")
	}
}
