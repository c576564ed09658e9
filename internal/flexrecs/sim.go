package flexrecs

import (
	"cmp"
	"math"
	"slices"

	"courserank/internal/textindex"
)

// This file is the FlexRecs similarity-function library — the "functions
// in a library that implement common tasks for recommendations, such as
// computing the Jaccard or Pearson similarity of two sets of objects"
// (paper §3.2). All functions are pure and exported for reuse by the
// hard-coded baseline recommenders in package recommend.

// TokenSet is a deduplicated token set, the unit Jaccard text
// similarity compares. Precomputing it once per string keeps repeated
// comparisons (one reference against a whole catalog) from
// re-tokenizing the same text per pair.
type TokenSet map[string]struct{}

// Tokens builds the token set of a string. Tokenization matches the
// search layer (lowercased, stopwords removed), so "Introduction to
// Programming" and "Introduction to Programming Methodology" compare on
// {introduction, programming} vs {introduction, programming, methodology}.
func Tokens(s string) TokenSet {
	toks := textindex.Tokenize(s)
	set := make(TokenSet, len(toks))
	for _, w := range toks {
		set[w] = struct{}{}
	}
	return set
}

// JaccardAgainst computes the Jaccard similarity between a raw token
// slice (as Tokenize produces; duplicates tolerated) and a precomputed
// reference set. Short slices — titles, the common case in the
// catalog-vs-reference comparison loop — deduplicate with a nested
// scan so no map is built per candidate row; longer text attributes
// fall back to a set to stay linear.
func JaccardAgainst(tokens []string, ref TokenSet) float64 {
	uniq, inter := 0, 0
	if len(tokens) > 24 {
		set := make(TokenSet, len(tokens))
		for _, w := range tokens {
			set[w] = struct{}{}
		}
		uniq = len(set)
		for w := range set {
			if _, ok := ref[w]; ok {
				inter++
			}
		}
	} else {
		for i, w := range tokens {
			dup := false
			for j := 0; j < i; j++ {
				if tokens[j] == w {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			uniq++
			if _, ok := ref[w]; ok {
				inter++
			}
		}
	}
	union := uniq + len(ref) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// JaccardText computes the Jaccard similarity of the token sets of two
// strings: |A∩B| / |A∪B|, in [0,1].
func JaccardText(a, b string) float64 {
	return JaccardAgainst(textindex.Tokenize(a), Tokens(b))
}

// The vector similarities below find the keys two vectors share by a
// merge: both are sorted by key (Vector), so one forward pass over each
// meets every common key, and no key is hashed. The merge meets them in
// key order, but the terms are not added in that order: float addition
// does not associate, and a sum whose order depended on how the pairs
// were met would move in its last bit with the vectors' layout — and
// reorder every ranking built on it (grade points such as 3.7 make the
// terms inexact; integer ratings never showed it). Every similarity
// therefore collects its terms first and adds them up in an order that
// depends on their values alone, so a score repeats bit for bit.

// simTerms is the stack buffer the similarities collect into: pairs of
// students rarely share more courses than this.
const simTerms = 16

// sortedSum adds terms up in ascending order, reordering them in place.
func sortedSum(terms []float64) float64 {
	slices.Sort(terms)
	sum := 0.0
	for _, t := range terms {
		sum += t
	}
	return sum
}

// common appends to pairs a's and b's values at each key the two share,
// in key order: one merge, no key hashed. A NaN key matches nothing.
func common(a, b Vector, pairs [][2]float64) [][2]float64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := a[i].Key, b[j].Key
		c, ok := intCmp(ka, kb)
		if !ok {
			c = keyCmp(ka, kb)
		}
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			if !isNaNKey(ka) {
				pairs = append(pairs, [2]float64{a[i].Value, b[j].Value})
			}
			i++
			j++
		}
	}
	return pairs
}

// InvEuclidean computes 1 / (1 + d) where d is the Euclidean distance
// between two sparse vectors over their common keys — the
// "inv_Euclidean" function of Figure 5(b). Vectors with no common key
// have similarity 0 (nothing comparable). It runs once per candidate
// pair in the CF hot loop: one merge, its terms on the stack.
func InvEuclidean(a, b Vector) float64 {
	var pbuf [simTerms][2]float64
	pairs := common(a, b, pbuf[:0])
	if len(pairs) == 0 {
		return 0
	}
	var buf [simTerms]float64
	terms := buf[:0]
	for _, p := range pairs {
		d := p[0] - p[1]
		terms = append(terms, d*d)
	}
	return 1 / (1 + math.Sqrt(sortedSum(terms)))
}

// Cosine computes the cosine similarity of two sparse vectors with
// missing keys treated as zero (the standard sparse definition): the dot
// product runs over common keys but each norm spans the whole vector, so
// a pair with a single shared rating does not degenerate to similarity
// 1. Zero-norm vectors have similarity 0.
func Cosine(a, b Vector) float64 {
	var pbuf [simTerms][2]float64
	pairs := common(a, b, pbuf[:0])
	var buf [simTerms]float64
	terms := buf[:0]
	for _, p := range pairs {
		terms = append(terms, p[0]*p[1])
	}
	dot := sortedSum(terms)
	if dot == 0 {
		return 0
	}
	na, nb := sumSquares(a, terms[:0]), sumSquares(b, terms[:0])
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// sumSquares is the squared norm of v, its terms collected into buf.
func sumSquares(v Vector, buf []float64) float64 {
	for _, e := range v {
		buf = append(buf, e.Value*e.Value)
	}
	return sortedSum(buf)
}

// Pearson computes the Pearson correlation of two sparse vectors over
// their common keys, in [-1,1]. It requires at least two common keys and
// non-degenerate variance; otherwise it returns 0.
func Pearson(a, b Vector) float64 {
	var pbuf [simTerms][2]float64
	pairs := common(a, b, pbuf[:0])
	n := float64(len(pairs))
	if n < 2 {
		return 0
	}
	// The pairs in value order: every sum below then runs over the same
	// sequence however they were met.
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

// Overlap computes the overlap coefficient of the key sets of two
// vectors: |A∩B| / min(|A|,|B|), in [0,1].
func Overlap(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var pbuf [simTerms][2]float64
	return float64(len(common(a, b, pbuf[:0]))) / float64(min(len(a), len(b)))
}
