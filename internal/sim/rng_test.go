package sim

import "testing"

// rngGolden pins the first draws of a generator: Int63, Float64,
// Intn(1000) and ExpFloat64, in that order. The values were recorded
// when every RNG seeded its math/rand source at construction; seeding on
// the first draw must reproduce them exactly.
var rngGolden = []struct {
	seed  int64
	kind  string
	i63   int64
	f64   float64
	intn  int
	exp64 float64
}{
	{1, "NewRNG", 5577006791947779410, 0.9405090880450124, 847, 0.6776268958872181},
	{1, "Stream", 6049053844794523215, 0.20910083632567217, 257, 0.37748839202470963},
	{1, "Derive", 6991724744445177123, 0.7017554946659084, 928, 3.0232159137109003},
	{20110815, "NewRNG", 1328694221462815652, 0.41409425749033824, 659, 0.784905840828545},
	{20110815, "Stream", 3046473619504826289, 0.7692265088759683, 130, 0.4398875026533443},
	{20110815, "Derive", 2763684146420278876, 0.18975907808025683, 31, 1.8991924852701179},
}

func goldenRNG(seed int64, kind string) *RNG {
	switch kind {
	case "Stream":
		return NewRNG(seed).Stream("driver")
	case "Derive":
		return NewRNG(seed).Derive("client/7")
	}
	return NewRNG(seed)
}

func TestRNGGoldenFirstDraws(t *testing.T) {
	for _, w := range rngGolden {
		g := goldenRNG(w.seed, w.kind)
		i63, f64, intn, exp64 := g.Int63(), g.Float64(), g.Intn(1000), g.ExpFloat64()
		if i63 != w.i63 || f64 != w.f64 || intn != w.intn || exp64 != w.exp64 {
			t.Errorf("seed %d %s: got (%d, %v, %d, %v), want (%d, %v, %d, %v)",
				w.seed, w.kind, i63, f64, intn, exp64, w.i63, w.f64, w.intn, w.exp64)
		}
	}
}

// A Stream taken from a parent that has never been drawn from must equal
// one taken from a parent whose source is already seeded: the child's
// seed is the parent's next draw either way.
func TestRNGStreamFromUnseededParent(t *testing.T) {
	for _, seed := range []int64{1, 20110815} {
		fresh := NewRNG(seed)
		seeded := NewRNG(seed)
		seeded.src()
		a, b := fresh.Stream("lmm"), seeded.Stream("lmm")
		for i := 0; i < 8; i++ {
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("seed %d draw %d: unseeded parent gave %d, seeded parent %d", seed, i, x, y)
			}
		}
		// Both parents continue identically after the derivation.
		if x, y := fresh.Int63(), seeded.Int63(); x != y {
			t.Fatalf("seed %d: parents diverged after Stream: %d vs %d", seed, x, y)
		}
	}
}

var rngSink *RNG

// NewRNG, Derive and Stream allocate only the 16-byte RNG header; the
// math/rand source (two further allocations, ~4.9 KB) appears on the
// first draw.
func TestRNGSeedsSourceOnFirstDraw(t *testing.T) {
	root := NewRNG(7)
	root.src()
	cases := []struct {
		name string
		mk   func() *RNG
	}{
		{"NewRNG", func() *RNG { return NewRNG(7) }},
		{"Derive", func() *RNG { return root.Derive("client-001") }},
		{"Stream", func() *RNG { return root.Stream("driver") }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, func() { rngSink = c.mk() }); n != 1 {
			t.Errorf("%s: %v allocs, want 1 (the header only)", c.name, n)
		}
		if g := c.mk(); g.r != nil {
			t.Errorf("%s: source seeded before the first draw", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { rngSink = c.mk(); rngSink.Int63() }); n != 3 {
			t.Errorf("%s then a draw: %v allocs, want 3 (header, Rand, source)", c.name, n)
		}
	}
	g := NewRNG(7)
	g.Coin("flight-client-00001")
	if g.r != nil {
		t.Error("Coin seeded the source")
	}
}
