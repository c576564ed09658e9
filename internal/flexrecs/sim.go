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

// Float addition does not associate and Go randomizes map iteration, so
// a sum accumulated in map order can move in its last bit from one run
// to the next — and a similarity that does reorders every ranking built
// on it (grade points such as 3.7 make the terms inexact; integer
// ratings never showed it). Every vector similarity below therefore
// collects its terms first and adds them up in an order that depends on
// their values alone.

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

// InvEuclidean computes 1 / (1 + d) where d is the Euclidean distance
// between two sparse vectors over their common keys — the
// "inv_Euclidean" function of Figure 5(b). Vectors with no common key
// have similarity 0 (nothing comparable). The accumulation streams over
// the smaller vector rather than materializing the common keys: this
// runs once per candidate pair in the CF hot loop.
func InvEuclidean(a, b Vector) float64 {
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

// Cosine computes the cosine similarity of two sparse vectors with
// missing keys treated as zero (the standard sparse definition): the dot
// product runs over common keys but each norm spans the whole vector, so
// a pair with a single shared rating does not degenerate to similarity
// 1. Zero-norm vectors have similarity 0.
func Cosine(a, b Vector) float64 {
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
	na, nb := sumSquares(a, terms[:0]), sumSquares(b, terms[:0])
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// sumSquares is the squared norm of v, its terms collected into buf.
func sumSquares(v Vector, buf []float64) float64 {
	for _, x := range v {
		buf = append(buf, x*x)
	}
	return sortedSum(buf)
}

// Pearson computes the Pearson correlation of two sparse vectors over
// their common keys, in [-1,1]. It requires at least two common keys and
// non-degenerate variance; otherwise it returns 0.
func Pearson(a, b Vector) float64 {
	small, big, swapped := a, b, false
	if len(b) < len(a) {
		small, big, swapped = b, a, true
	}
	// The common keys' (a, b) value pairs, put in value order: every sum
	// below then runs over the same sequence whatever the map order was.
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

// Overlap computes the overlap coefficient of the key sets of two
// vectors: |A∩B| / min(|A|,|B|), in [0,1].
func Overlap(a, b Vector) float64 {
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
