package flexrecs

import (
	"fmt"
	"slices"

	"courserank/internal/relation"
	"courserank/internal/textindex"
)

// Comparator scores one target tuple against the set of reference
// tuples inside a recommend operator. Implementations resolve their
// attribute columns once per execution via bind.
//
// A row's score depends only on that row and the reference, never on
// which other target rows exist, and a row's error is raised when that
// row is scored. ▷ relies on it to score a σ target where it stands:
// bind sees the σ's input, the rows the σ drops included, and only the
// kept rows are scored. bind may read the target's rows to size what it
// builds, and the closure may keep state from one call to the next to
// find what it reads faster, as wavgCmp's cursors do, but neither may
// decide a score or an error.
type Comparator interface {
	// Label renders the comparator the way the paper annotates recommend
	// triangles, e.g. "Jaccard[Title]" or "inv_Euclidean[Ratings]".
	Label() string
	// bind resolves columns against the target and reference schemas and
	// returns the scoring closure.
	bind(target, ref *Relation) (func(trow []any) (float64, error), error)
}

// attrString extracts a string attribute from a tuple.
func attrString(row []any, idx int) (string, error) {
	v := row[idx]
	if v == nil {
		return "", nil
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("flexrecs: attribute is %T, want string", v)
	}
	return s, nil
}

// attrVector extracts a Vector attribute from a tuple.
func attrVector(row []any, idx int) (Vector, error) {
	v := row[idx]
	if v == nil {
		return nil, nil
	}
	vec, ok := v.(Vector)
	if !ok {
		return nil, fmt.Errorf("flexrecs: attribute is %T, want Vector (did you Extend first?)", v)
	}
	return vec, nil
}

// jaccardCmp compares a string attribute by token-set Jaccard; the
// target's score is its best similarity to any reference tuple.
type jaccardCmp struct{ attr string }

// JaccardOn compares the named string attribute with token-set Jaccard
// similarity — "Jaccard[Title]" in Figure 5(a).
func JaccardOn(attr string) Comparator { return &jaccardCmp{attr: attr} }

func (c *jaccardCmp) Label() string { return "Jaccard[" + c.attr + "]" }

func (c *jaccardCmp) bind(target, ref *Relation) (func([]any) (float64, error), error) {
	ti, ok := target.Col(c.attr)
	if !ok {
		return nil, fmt.Errorf("flexrecs: target has no attribute %q", c.attr)
	}
	ri, ok := ref.Col(c.attr)
	if !ok {
		return nil, fmt.Errorf("flexrecs: reference has no attribute %q", c.attr)
	}
	// Tokenize every reference once; each target then tokenizes once and
	// intersects, instead of re-tokenizing both sides per pair.
	refSets := make([]TokenSet, 0, len(ref.Rows))
	for _, r := range ref.Rows {
		s, err := attrString(r, ri)
		if err != nil {
			return nil, err
		}
		refSets = append(refSets, Tokens(s))
	}
	// recommend drives the closure sequentially, so one tokenizer can
	// serve every target row — tokens are consumed by the Jaccard
	// intersections below and never escape a call, and a title's tokens
	// are slices of the tokenizer's one lowered-text buffer.
	var tok textindex.Tokenizer
	return func(trow []any) (float64, error) {
		s, err := attrString(trow, ti)
		if err != nil {
			return 0, err
		}
		toks := tok.Tokens(s)
		best := 0.0
		for _, rt := range refSets {
			if j := JaccardAgainst(toks, rt); j > best {
				best = j
			}
		}
		return best, nil
	}, nil
}

// vectorCmp compares a Vector attribute with a pluggable pairwise
// function; the target's score is its best similarity to any reference.
type vectorCmp struct {
	attr string
	name string
	fn   func(a, b Vector) float64
}

// InvEuclideanOn compares the named Vector attribute by inverse
// Euclidean distance — "inv_Euclidean[Ratings]" in Figure 5(b).
func InvEuclideanOn(attr string) Comparator {
	return &vectorCmp{attr: attr, name: "inv_Euclidean", fn: InvEuclidean}
}

// CosineOn compares the named Vector attribute by cosine similarity.
func CosineOn(attr string) Comparator {
	return &vectorCmp{attr: attr, name: "Cosine", fn: Cosine}
}

// PearsonOn compares the named Vector attribute by Pearson correlation.
func PearsonOn(attr string) Comparator {
	return &vectorCmp{attr: attr, name: "Pearson", fn: Pearson}
}

// OverlapOn compares the named Vector attribute by key-set overlap.
func OverlapOn(attr string) Comparator {
	return &vectorCmp{attr: attr, name: "Overlap", fn: Overlap}
}

func (c *vectorCmp) Label() string { return c.name + "[" + c.attr + "]" }

func (c *vectorCmp) bind(target, ref *Relation) (func([]any) (float64, error), error) {
	ti, ok := target.Col(c.attr)
	if !ok {
		return nil, fmt.Errorf("flexrecs: target has no attribute %q", c.attr)
	}
	ri, ok := ref.Col(c.attr)
	if !ok {
		return nil, fmt.Errorf("flexrecs: reference has no attribute %q", c.attr)
	}
	refVecs := make([]Vector, 0, len(ref.Rows))
	for _, r := range ref.Rows {
		v, err := attrVector(r, ri)
		if err != nil {
			return nil, err
		}
		refVecs = append(refVecs, v)
	}
	return func(trow []any) (float64, error) {
		v, err := attrVector(trow, ti)
		if err != nil {
			return 0, err
		}
		best := 0.0
		for _, rv := range refVecs {
			if s := c.fn(v, rv); s > best {
				best = s
			}
		}
		return best, nil
	}, nil
}

// wavgCmp scores a target tuple by the weighted average of the
// reference tuples' vector values at the target's key — the
// "Identify[CourseID, Ratings], W_Avg[Score]" combination closing
// Figure 5(b): a course's score is the average of the ratings given by
// the similar students, weighted by how similar each student is.
type wavgCmp struct {
	keyAttr    string // target column whose value indexes the vectors
	vecAttr    string // reference Vector column
	weightAttr string // reference weight column (e.g. prior Score)
}

// WeightedAvg builds the Identify+W_Avg comparator.
func WeightedAvg(keyAttr, vecAttr, weightAttr string) Comparator {
	return &wavgCmp{keyAttr: keyAttr, vecAttr: vecAttr, weightAttr: weightAttr}
}

// AvgOf is WeightedAvg with every reference weighted equally — a plain
// average of the reference vectors' values at the target key.
func AvgOf(keyAttr, vecAttr string) Comparator {
	return &wavgCmp{keyAttr: keyAttr, vecAttr: vecAttr}
}

func (c *wavgCmp) Label() string {
	if c.weightAttr == "" {
		return fmt.Sprintf("Identify[%s,%s], Avg", c.keyAttr, c.vecAttr)
	}
	return fmt.Sprintf("Identify[%s,%s], W_Avg[%s]", c.keyAttr, c.vecAttr, c.weightAttr)
}

func (c *wavgCmp) bind(target, ref *Relation) (func([]any) (float64, error), error) {
	ki, ok := target.Col(c.keyAttr)
	if !ok {
		return nil, fmt.Errorf("flexrecs: target has no attribute %q", c.keyAttr)
	}
	vi, ok := ref.Col(c.vecAttr)
	if !ok {
		return nil, fmt.Errorf("flexrecs: reference has no attribute %q", c.vecAttr)
	}
	wi := -1
	if c.weightAttr != "" {
		if wi, ok = ref.Col(c.weightAttr); !ok {
			return nil, fmt.Errorf("flexrecs: reference has no attribute %q", c.weightAttr)
		}
	}
	// Read every vector and weight once up front, raising any error.
	for _, r := range ref.Rows {
		if _, err := attrVector(r, vi); err != nil {
			return nil, err
		}
		if wi >= 0 {
			if _, err := toWeight(r[wi]); err != nil {
				return nil, err
			}
		}
	}
	// A target key's score sums the reference vectors' values at that
	// key in reference-row order, so it repeats bit for bit, and no key is
	// hashed. How the sums are found depends on which side is smaller,
	// so the scratch stays below a few words per reference row.
	if len(target.Rows) < len(ref.Rows) {
		return wavgByKey(target, ref, ki, vi, wi), nil
	}
	return wavgWalk(ref, ki, vi, wi), nil
}

// refWeight is reference row r's weight: its column wi, or 1 without
// one. bind has checked every weight.
func refWeight(r []any, wi int) float64 {
	if wi < 0 {
		return 1
	}
	w, _ := toWeight(r[wi])
	return w
}

// wavgByKey scores a target with fewer rows than the reference — a
// department's courses against every student's ratings — from one pass
// over the reference: the target's keys, sorted and distinct (keyCmp),
// each gather the values at that key, vector after vector in
// reference-row order, every entry finding its key by binary search. A
// target key that does not normalize is left to the closure, which
// raises it if that row is scored.
func wavgByKey(target, ref *Relation, ki, vi, wi int) func([]any) (float64, error) {
	keys := make([]relation.Value, 0, len(target.Rows))
	for _, trow := range target.Rows {
		if k, err := relation.Normalize(trow[ki]); err == nil && !isNaNKey(k) {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, keyCmp)
	keys = slices.CompactFunc(keys, func(a, b relation.Value) bool { return keyCmp(a, b) == 0 })
	sums := make([]struct{ num, den float64 }, len(keys))
	for _, r := range ref.Rows {
		w := refWeight(r, wi)
		if w <= 0 {
			continue
		}
		vec, _ := r[vi].(Vector) // checked by bind
		lo := 0                  // keys below lo are below every entry left
		for _, e := range vec {
			j := lowerBound(keys[lo:], e.Key)
			if lo += j; lo == len(keys) {
				break
			}
			c, ok := intCmp(keys[lo], e.Key)
			if !ok {
				c = keyCmp(keys[lo], e.Key) // keys holds no NaN to match
			}
			if c == 0 {
				sums[lo].num += w * e.Value
				sums[lo].den += w
			}
		}
	}
	return func(trow []any) (float64, error) {
		key, err := relation.Normalize(trow[ki])
		if err != nil {
			return 0, err
		}
		if isNaNKey(key) {
			return 0, nil
		}
		j := lowerBound(keys, key)
		if j == len(keys) || keyCmp(keys[j], key) != 0 || sums[j].den == 0 {
			return 0, nil
		}
		return sums[j].num / sums[j].den, nil
	}
}

// lowerBound is the position of the first of keys, sorted by keyCmp, not
// below key.
func lowerBound(keys []relation.Value, key relation.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, ok := intCmp(keys[mid], key)
		if !ok {
			c = keyCmp(keys[mid], key)
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// wavgWalk scores a target at least as large as the reference — every
// course against the similar students — by walking the reference
// vectors for each target key. Each reference keeps a cursor into its
// vector, at the first entry above the last key scored, and least is the
// least key under a cursor. Target keys mostly ascend (a scan of Courses
// comes in CourseID order): a key below least then scores 0 without a
// look at any reference, and one at or above it steps the cursors
// forward; a key below the last one searches each vector again. The
// cursors are all the scratch there is, one per reference row, and they
// change no score: the Comparator contract holds.
func wavgWalk(ref *Relation, ki, vi, wi int) func([]any) (float64, error) {
	at := make([]int32, len(ref.Rows))
	var (
		last, least     relation.Value
		lastScore       float64
		walked, anyLeft bool // walked: the cursors stand after last; anyLeft: least is one
	)
	return func(trow []any) (float64, error) {
		key, err := relation.Normalize(trow[ki])
		if err != nil {
			return 0, err
		}
		if isNaNKey(key) {
			return 0, nil
		}
		back := false
		if walked {
			switch c := keyCmp(key, last); {
			case c == 0:
				return lastScore, nil
			case c < 0:
				back = true
			case !anyLeft || keyCmp(key, least) < 0:
				last, lastScore = key, 0
				return 0, nil
			}
		}
		var num, den float64
		anyLeft = false
		for i, r := range ref.Rows {
			vec, _ := r[vi].(Vector) // checked by bind
			p := int(at[i])
			if back {
				p, _ = slices.BinarySearchFunc(vec[:p], key, entryCmp)
			}
			c := 1 // vec[p] against key where the cursor stops
			for ; p < len(vec); p++ {
				var ok bool
				if c, ok = intCmp(vec[p].Key, key); !ok {
					c = keyCmp(vec[p].Key, key)
				}
				if c >= 0 {
					break
				}
			}
			if c == 0 {
				if w := refWeight(r, wi); !(w <= 0) {
					num += w * vec[p].Value
					den += w
				}
				p++
			}
			at[i] = int32(p)
			if p == len(vec) {
				continue
			}
			l, ok := intCmp(vec[p].Key, least)
			if !ok && anyLeft {
				l = keyCmp(vec[p].Key, least)
			}
			if !anyLeft || l < 0 {
				least, anyLeft = vec[p].Key, true
			}
		}
		last, walked, lastScore = key, true, 0
		if den != 0 {
			lastScore = num / den
		}
		return lastScore, nil
	}
}

// entryCmp orders an entry against a key by keyCmp.
func entryCmp(e Entry, k relation.Value) int { return keyCmp(e.Key, k) }

func toWeight(v any) (float64, error) {
	switch x := v.(type) {
	case nil:
		return 0, nil
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	}
	return 0, fmt.Errorf("flexrecs: weight is %T, want number", v)
}
