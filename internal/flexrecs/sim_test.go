package flexrecs

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaccardText(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"Introduction to Programming", "Introduction to Programming", 1},
		{"Introduction to Programming", "Advanced Programming", 1.0 / 3}, // {introduction,programming} ∪ {advanced,programming}
		{"Operating Systems", "Greek Science", 0},
		{"", "", 0},
		{"the of and", "x", 0}, // all stopwords on one side
	}
	for _, c := range cases {
		if got := JaccardText(c.a, c.b); !almostEq(got, c.want) {
			t.Errorf("JaccardText(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Properties: Jaccard is symmetric, bounded in [0,1], and 1 on identical
// non-empty token sets.
func TestJaccardProperties(t *testing.T) {
	f := func(a, b string) bool {
		x, y := JaccardText(a, b), JaccardText(b, a)
		if !almostEq(x, y) || x < 0 || x > 1 {
			return false
		}
		self := JaccardText(a, a)
		return self == 0 || almostEq(self, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInvEuclidean(t *testing.T) {
	a := mapVector{int64(1): 5, int64(2): 3}.vector()
	b := mapVector{int64(1): 5, int64(2): 3}.vector()
	if got := InvEuclidean(a, b); !almostEq(got, 1) {
		t.Errorf("identical vectors = %v, want 1", got)
	}
	c := mapVector{int64(1): 1, int64(2): 0}.vector()
	// distance = sqrt(16+9) = 5 → 1/6
	if got := InvEuclidean(a, c); !almostEq(got, 1.0/6) {
		t.Errorf("InvEuclidean = %v, want 1/6", got)
	}
	if got := InvEuclidean(a, mapVector{int64(9): 4}.vector()); got != 0 {
		t.Errorf("disjoint vectors = %v, want 0", got)
	}
	if got := InvEuclidean(nil, nil); got != 0 {
		t.Errorf("nil vectors = %v", got)
	}
}

func TestCosine(t *testing.T) {
	a := mapVector{int64(1): 3, int64(2): 4}.vector()
	if got := Cosine(a, a); !almostEq(got, 1) {
		t.Errorf("self cosine = %v", got)
	}
	b := mapVector{int64(1): 4, int64(2): -3}.vector()
	if got := Cosine(a, b); !almostEq(got, 0) {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := Cosine(a, mapVector{int64(3): 1}.vector()); got != 0 {
		t.Error("disjoint cosine should be 0")
	}
	if got := Cosine(a, mapVector{int64(1): 0, int64(2): 0}.vector()); got != 0 {
		t.Error("zero-norm cosine should be 0")
	}
}

func TestPearson(t *testing.T) {
	a := mapVector{int64(1): 1, int64(2): 2, int64(3): 3}.vector()
	b := mapVector{int64(1): 2, int64(2): 4, int64(3): 6}.vector()
	if got := Pearson(a, b); !almostEq(got, 1) {
		t.Errorf("perfect correlation = %v", got)
	}
	c := mapVector{int64(1): 3, int64(2): 2, int64(3): 1}.vector()
	if got := Pearson(a, c); !almostEq(got, -1) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(a, mapVector{int64(1): 5}.vector()); got != 0 {
		t.Error("single common key should be 0")
	}
	flat := mapVector{int64(1): 2, int64(2): 2, int64(3): 2}.vector()
	if got := Pearson(a, flat); got != 0 {
		t.Error("zero variance should be 0")
	}
}

func TestOverlap(t *testing.T) {
	a := mapVector{int64(1): 1, int64(2): 1}.vector()
	b := mapVector{int64(2): 9, int64(3): 9, int64(4): 9}.vector()
	if got := Overlap(a, b); !almostEq(got, 0.5) {
		t.Errorf("Overlap = %v, want 0.5", got)
	}
	if Overlap(a, nil) != 0 {
		t.Error("empty overlap should be 0")
	}
}

// Properties shared by all vector similarities: symmetry and bounds.
func TestVectorSimilarityProperties(t *testing.T) {
	mk := func(ks, vs []uint8) Vector {
		v := mapVector{}
		for i := range ks {
			if i >= len(vs) {
				break
			}
			v[int64(ks[i]%8)] = float64(vs[i] % 6)
		}
		return v.vector()
	}
	f := func(ka, va, kb, vb []uint8) bool {
		a, b := mk(ka, va), mk(kb, vb)
		for _, fn := range []func(Vector, Vector) float64{InvEuclidean, Cosine, Overlap} {
			x, y := fn(a, b), fn(b, a)
			if !almostEq(x, y) || x < 0 || x > 1+1e-9 {
				return false
			}
		}
		p, q := Pearson(a, b), Pearson(b, a)
		return almostEq(p, q) && p >= -1-1e-9 && p <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVectorClone(t *testing.T) {
	a := mapVector{int64(1): 2}.vector()
	b := a.Clone()
	b[0].Value = 9
	if v, _ := a.At(int64(1)); v != 2 {
		t.Error("Clone must not alias")
	}
}

// TestVectorSimilaritiesRepeatBitForBit: float addition does not
// associate, so a similarity that summed its terms in the order it met
// them would move in its last bit with that order once the terms are
// inexact (grade points like 3.7) — a map's iteration order, which Go
// randomizes, once did. Each function must return the identical float
// every time, whichever operand comes first.
func TestVectorSimilaritiesRepeatBitForBit(t *testing.T) {
	grades := []float64{4.0, 3.7, 3.3, 3.0, 2.7, 2.3, 2.0, 1.7, 1.3, 4.3, 0.7}
	am, bm := mapVector{}, mapVector{}
	for i := 0; i < 14; i++ {
		am[int64(i)] = grades[i%len(grades)]
		if i%4 != 3 {
			bm[int64(i)] = grades[(i*5+2)%len(grades)]
		}
	}
	bm[int64(100)] = 3.7 // only in b: counts toward its cosine norm
	a, b := am.vector(), bm.vector()
	for name, fn := range map[string]func(a, b Vector) float64{
		"InvEuclidean": InvEuclidean, "Cosine": Cosine, "Pearson": Pearson,
	} {
		first := fn(a, b)
		if first == 0 || math.IsNaN(first) {
			t.Fatalf("%s = %v on overlapping vectors", name, first)
		}
		for run := 0; run < 50; run++ {
			// Fresh vectors each run, built from maps ranged in a new order.
			if got := fn(am.vector(), bm.vector()); math.Float64bits(got) != math.Float64bits(first) {
				t.Fatalf("%s run %d = %v, first run = %v (differ in the last bits)", name, run, got, first)
			}
			if got, want := fn(b.Clone(), a.Clone()), first; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s is not symmetric bit for bit: %v vs %v", name, got, want)
			}
		}
	}
}
