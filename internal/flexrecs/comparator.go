package flexrecs

import (
	"fmt"

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
// builds, as wavgCmp does, but not to decide a score or an error.
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
	// Fold the reference vectors into one aggregation table up front:
	// scoring a target is then a single lookup instead of a pass over
	// every reference vector per target row. The table is keyed by the
	// smaller side — the target's keys when the reference holds more
	// values than the target has rows (a department's courses against
	// everybody's ratings), the reference's keys otherwise — and each
	// key sums in reference-row order whichever side keys it, so the
	// scores repeat bit for bit. That keeps the Comparator contract: a
	// row's score is its key's sum whichever rows beside it sized the
	// table, and a target key that does not normalize is left to the
	// closure, which raises it if that row is scored. A first pass reads
	// every vector and weight, raising any error, and counts the values.
	values := 0
	for _, r := range ref.Rows {
		vec, err := attrVector(r, vi)
		if err != nil {
			return nil, err
		}
		if wi >= 0 {
			if _, err := toWeight(r[wi]); err != nil {
				return nil, err
			}
		}
		values += len(vec)
	}
	type agg struct{ num, den float64 }
	var (
		slots    map[relation.Value]int32
		table    []agg
		byTarget = values > len(target.Rows)
	)
	if byTarget {
		slots = make(map[relation.Value]int32, len(target.Rows))
		for _, trow := range target.Rows {
			key, err := relation.Normalize(trow[ki])
			if err != nil {
				continue // scoring the row raises it, if the row is scored
			}
			if _, ok := slots[key]; !ok {
				slots[key] = int32(len(slots))
			}
		}
		table = make([]agg, len(slots))
	} else {
		slots = make(map[relation.Value]int32, values)
		table = make([]agg, 0, values)
	}
	for _, r := range ref.Rows {
		vec, _ := attrVector(r, vi)
		w := 1.0
		if wi >= 0 {
			w, _ = toWeight(r[wi])
		}
		if w <= 0 {
			continue
		}
		for k, v := range vec {
			slot, ok := slots[k]
			if !ok {
				if byTarget {
					continue
				}
				slot = int32(len(table))
				slots[k] = slot
				table = append(table, agg{})
			}
			table[slot].num += w * v
			table[slot].den += w
		}
	}
	return func(trow []any) (float64, error) {
		key, err := relation.Normalize(trow[ki])
		if err != nil {
			return 0, err
		}
		slot, ok := slots[key]
		if !ok || table[slot].den == 0 {
			return 0, nil
		}
		return table[slot].num / table[slot].den, nil
	}, nil
}

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
