package flexrecs

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"courserank/internal/relation"
)

// mapVector is the map form a Vector had before it was sorted: the
// oracle the sorted form is checked against, and a literal syntax for
// tests.
type mapVector map[relation.Value]float64

// entries lists m's entries in the map's order.
func (m mapVector) entries() []Entry {
	out := make([]Entry, 0, len(m))
	for k, v := range m {
		out = append(out, Entry{Key: k, Value: v})
	}
	return out
}

// vector builds the sorted Vector holding m's entries.
func (m mapVector) vector() Vector { return NewVector(m.entries()) }

// mapOf is v in map form; each NaN key is an entry of its own, as in a
// map that was assigned it once per entry.
func mapOf(v Vector) mapVector {
	m := make(mapVector, len(v))
	for _, e := range v {
		m[e.Key] = e.Value
	}
	return m
}

// canon lists entries in one order, NaN keys included, so two forms of
// a vector compare entry by entry.
func canon[E ~[]Entry](es E) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, fmt.Sprintf("%T:%v=%x", e.Key, e.Key, math.Float64bits(e.Value)))
	}
	slices.Sort(out)
	return out
}

// The similarities as they were over map vectors, kept verbatim: each
// streams over the smaller map, probing the bigger one.

func mapInvEuclidean(a, b mapVector) float64 {
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	var buf [simTerms]float64
	terms := buf[:0]
	for k, x := range small {
		if y, ok := big[k]; ok {
			d := x - y
			terms = append(terms, d*d)
		}
	}
	if len(terms) == 0 {
		return 0
	}
	return 1 / (1 + math.Sqrt(sortedSum(terms)))
}

func mapCosine(a, b mapVector) float64 {
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	var buf [simTerms]float64
	terms := buf[:0]
	for k, x := range small {
		if y, ok := big[k]; ok {
			terms = append(terms, x*y)
		}
	}
	dot := sortedSum(terms)
	if dot == 0 {
		return 0
	}
	na, nb := mapSumSquares(a, terms[:0]), mapSumSquares(b, terms[:0])
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func mapSumSquares(v mapVector, buf []float64) float64 {
	for _, x := range v {
		buf = append(buf, x*x)
	}
	return sortedSum(buf)
}

func mapPearson(a, b mapVector) float64 {
	small, big, swapped := a, b, false
	if len(b) < len(a) {
		small, big, swapped = b, a, true
	}
	var buf [simTerms][2]float64
	pairs := buf[:0]
	for k, x := range small {
		if y, ok := big[k]; ok {
			if swapped {
				x, y = y, x
			}
			pairs = append(pairs, [2]float64{x, y})
		}
	}
	n := float64(len(pairs))
	if n < 2 {
		return 0
	}
	slices.SortFunc(pairs, func(p, q [2]float64) int {
		if c := cmp.Compare(p[0], q[0]); c != 0 {
			return c
		}
		return cmp.Compare(p[1], q[1])
	})
	var sa, sb float64
	for _, p := range pairs {
		sa += p[0]
		sb += p[1]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for _, p := range pairs {
		da, db := p[0]-ma, p[1]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}

func mapOverlap(a, b mapVector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	inter := 0
	for k := range small {
		if _, ok := big[k]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(small))
}

// mapExtend is ε as it nested into maps, kept as its oracle: groups by
// ==, every NaN group key in one group, in first-appearance order sorted
// stably by relation.Compare; within a group a later value replaces an
// earlier one, and each NaN key adds an entry of its own.
func mapExtend(child *Relation, groupBy, keyCol, valCol string) ([]relation.Value, []mapVector, error) {
	gi, ki, vi, err := extendCols(child.Cols, groupBy, keyCol, valCol)
	if err != nil {
		return nil, nil, err
	}
	var (
		order  []relation.Value
		groups = map[relation.Value]mapVector{}
		nan    mapVector
	)
	vecFor := func(g relation.Value) mapVector {
		if f, ok := g.(float64); ok && math.IsNaN(f) {
			if nan == nil {
				nan = mapVector{}
				order = append(order, g)
			}
			return nan
		}
		v, seen := groups[g]
		if !seen {
			v = mapVector{}
			groups[g] = v
			order = append(order, g)
		}
		return v
	}
	for _, row := range child.Rows {
		g, k, val, ok, err := extendCell(row[gi], row[ki], row[vi], valCol)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			vecFor(g)[k] = val
		}
	}
	slices.SortStableFunc(order, relation.Compare)
	vecs := make([]mapVector, len(order))
	for i, g := range order {
		vecs[i] = vecFor(g)
	}
	return order, vecs, nil
}

// vectorKeys are keys that a map tells apart or merges in every way a
// Vector must: int64(1) beside float64(1), -0 beside 0, NaN (equal to
// nothing), strings and bools.
var vectorKeys = []relation.Value{
	int64(0), int64(1), int64(2), int64(7), int64(-3), float64(1), 0.0, math.Copysign(0, -1),
	2.5, math.NaN(), "a", "b", true, false,
}

var vectorValues = []float64{1, 2.5, 3.7, 4, 5, 0.1, 0, math.Copysign(0, -1), -2, math.NaN()}

// randomEntries draws up to max (key, value) pairs, repeats included.
func randomEntries(rng *rand.Rand, max int) []Entry {
	n := rng.Intn(max + 1)
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Key: vectorKeys[rng.Intn(len(vectorKeys))], Value: vectorValues[rng.Intn(len(vectorValues))]}
	}
	return out
}

// assign is the map a sequence of assignments leaves.
func assign(es []Entry) mapVector {
	m := mapVector{}
	for _, e := range es {
		m[e.Key] = e.Value
	}
	return m
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestSortedVectorsMatchMapOracle: the sorted Vector, its merging
// similarities, W_Avg's reference walk and ε's sort-based nesting answer
// bit for bit what the map form answered, on random vectors holding NaN
// values and keys, -0 beside 0, int64(1) beside float64(1), empty
// vectors and repeated keys.
func TestSortedVectorsMatchMapOracle(t *testing.T) {
	sims := []struct {
		name   string
		sorted func(a, b Vector) float64
		oracle func(a, b mapVector) float64
	}{
		{"InvEuclidean", InvEuclidean, mapInvEuclidean},
		{"Cosine", Cosine, mapCosine},
		{"Pearson", Pearson, mapPearson},
		{"Overlap", Overlap, mapOverlap},
	}
	for seed := range int64(2000) {
		rng := rand.New(rand.NewSource(seed))
		ea, eb := randomEntries(rng, 12), randomEntries(rng, 12)
		ma, mb := assign(ea), assign(eb)
		a, b := NewVector(slices.Clone(ea)), NewVector(slices.Clone(eb))
		if got, want := canon(a), canon(ma.entries()); !slices.Equal(got, want) {
			t.Fatalf("seed %d: NewVector(%v) = %v, map form %v", seed, ea, got, want)
		}
		if !slices.IsSortedFunc(a, func(x, y Entry) int { return keyCmp(x.Key, y.Key) }) {
			t.Fatalf("seed %d: %v is not in key order", seed, a)
		}
		for _, k := range vectorKeys {
			got, gok := a.At(k)
			want, wok := ma[k]
			if gok != wok || (gok && !sameFloat(got, want)) {
				t.Fatalf("seed %d: At(%v) = %v %v, map form %v %v", seed, k, got, gok, want, wok)
			}
		}
		for _, s := range sims {
			if got, want := s.sorted(a, b), s.oracle(ma, mb); !sameFloat(got, want) {
				t.Fatalf("seed %d %s(%v, %v) = %v, map form %v", seed, s.name, a, b, got, want)
			}
		}
	}
}

// TestWeightedAvgMatchesMapOracle scores random targets — keys of
// every kind, in random order, so the walk's cursors step back as well
// as forward, and smaller as well as larger than the reference, so both
// of bind's ways run — against random references, bit for bit as the
// table of the map form did.
func TestWeightedAvgMatchesMapOracle(t *testing.T) {
	for seed := range int64(600) {
		rng := rand.New(rand.NewSource(seed))
		target := &Relation{Cols: []string{"CourseID"}}
		for range rng.Intn(20) {
			var key any = vectorKeys[rng.Intn(len(vectorKeys))]
			if rng.Intn(12) == 0 {
				key = nil
			}
			target.Rows = append(target.Rows, []any{key})
		}
		if rng.Intn(2) == 0 {
			slices.SortStableFunc(target.Rows, func(x, y []any) int {
				nx, _ := relation.Normalize(x[0])
				ny, _ := relation.Normalize(y[0])
				return keyCmp(nx, ny)
			})
		}
		ref := &Relation{Cols: []string{"SuID", "Ratings", "Score"}}
		for i := range rng.Intn(8) {
			var w any = []float64{0.3, 1, 0.1, 0, -1, 0.7, math.NaN()}[rng.Intn(7)]
			if rng.Intn(10) == 0 {
				w = nil
			}
			var vec any = NewVector(randomEntries(rng, 8))
			if rng.Intn(10) == 0 {
				vec = nil
			}
			ref.Rows = append(ref.Rows, []any{int64(i), vec, w})
		}
		for _, c := range []*wavgCmp{AvgOf("CourseID", "Ratings").(*wavgCmp), WeightedAvg("courseid", "Ratings", "Score").(*wavgCmp)} {
			got, err := c.bind(target, ref)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refWavgBind(c, target, ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range target.Rows {
				g, gerr := got(row)
				w, werr := want(row)
				if (gerr == nil) != (werr == nil) || !sameFloat(g, w) {
					t.Fatalf("seed %d %s key %v: score %v %v, map form %v %v", seed, c.Label(), row[0], g, gerr, w, werr)
				}
			}
		}
	}
}

// TestExtendMatchesMapOracle nests random rows — repeated (group, key)
// pairs, NULL and NaN values, group keys of several kinds — and finds
// the groups, their order and every entry as the map form had them.
func TestExtendMatchesMapOracle(t *testing.T) {
	groupPools := [][]any{
		{int64(1), int64(2), int64(3), int64(40)},
		{int64(1), int64(2), 0.5, math.NaN(), "g", float64(1)},
	}
	for seed := range int64(600) {
		rng := rand.New(rand.NewSource(seed))
		pool := groupPools[rng.Intn(len(groupPools))]
		child := &Relation{Cols: []string{"G", "K", "V"}}
		for range rng.Intn(40) {
			var v any = vectorValues[rng.Intn(len(vectorValues))]
			if rng.Intn(8) == 0 {
				v = nil
			}
			child.Rows = append(child.Rows, []any{pool[rng.Intn(len(pool))], vectorKeys[rng.Intn(len(vectorKeys))], v})
		}
		out, err := extend(child, "G", "K", "V", "Vec")
		if err != nil {
			t.Fatal(err)
		}
		groups, vecs, err := mapExtend(child, "G", "K", "V")
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rows) != len(groups) {
			t.Fatalf("seed %d: %d groups, map form %d", seed, len(out.Rows), len(groups))
		}
		for i, row := range out.Rows {
			if fmt.Sprintf("%T:%v", row[0], row[0]) != fmt.Sprintf("%T:%v", groups[i], groups[i]) {
				t.Fatalf("seed %d group %d = %v, map form %v", seed, i, row[0], groups[i])
			}
			if got, want := canon(row[1].(Vector)), canon(vecs[i].entries()); !slices.Equal(got, want) {
				t.Fatalf("seed %d group %v = %v, map form %v", seed, row[0], got, want)
			}
		}
	}
}

// TestGroupRunMatchesEvaluator: a σ g = ? or g <> ? that the rewriter
// marks (refsOnly) keeps, by binary search over an ε's nesting, exactly
// the groups the evaluator keeps — over group keys of several kinds, NaN
// among them, and arguments of every kind, NULL and NaN included.
func TestGroupRunMatchesEvaluator(t *testing.T) {
	groupPools := [][]any{
		{int64(1), int64(2), int64(3), int64(40), int64(-5)},
		{int64(1), int64(2), 0.5, float64(1), "g", "h", true},
		{int64(1), 0.5, math.NaN()},
	}
	conds := []string{"G = ?", "G <> ?", "? = G", "g <> ?", "G >= ?", "G = ? + 1", "-G = ?"}
	args := []any{int64(1), int64(2), int64(40), int(3), 1.0, 0.5, math.NaN(), nil, "g", "zz", true, float32(1)}
	fast := 0
	for seed := range int64(300) {
		rng := rand.New(rand.NewSource(seed))
		pool := groupPools[rng.Intn(len(groupPools))]
		child := &Relation{Cols: []string{"G", "K", "V"}}
		for range rng.Intn(30) {
			child.Rows = append(child.Rows, []any{pool[rng.Intn(len(pool))], int64(rng.Intn(5)), 1.0})
		}
		nest, err := extend(child, "G", "K", "V", "Vec")
		if err != nil {
			t.Fatal(err)
		}
		for _, cond := range conds {
			for _, arg := range args {
				_, op := refsOnly(cond, []any{arg}, "G")
				s := &Step{kind: selectStep, keyOp: op, cond: cond, args: []any{arg}}
				if _, _, ok := groupRun(s, s.args, nest); ok {
					fast++
				}
				got, gn, gerr := selectKeep(s, s.args, nest)
				s.keyOp = noKeyOp
				want, wn, werr := selectKeep(s, s.args, nest)
				if (gerr == nil) != (werr == nil) || gn != wn || !slices.Equal(got, want) {
					t.Fatalf("seed %d σ[%s] %v over %v: kept %v (%d, %v), evaluator %v (%d, %v)",
						seed, cond, arg, nest.Rows, got, gn, gerr, want, wn, werr)
				}
			}
		}
	}
	if fast == 0 {
		t.Fatal("no σ took the binary search")
	}
}
