package flexrecs

import (
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

// commonKeys returns the values of a and b on their shared keys.
func commonKeys(a, b Vector) (av, bv []float64) {
	for k, x := range a {
		if y, ok := b[k]; ok {
			av = append(av, x)
			bv = append(bv, y)
		}
	}
	return av, bv
}

// InvEuclidean computes 1 / (1 + d) where d is the Euclidean distance
// between two sparse vectors over their common keys — the
// "inv_Euclidean" function of Figure 5(b). Vectors with no common key
// have similarity 0 (nothing comparable). The accumulation streams over
// the smaller vector rather than materializing the common keys: this
// runs once per candidate pair in the CF hot loop.
//
// The squared differences are summed in ascending order of their
// values, not in map order: float addition does not associate, Go
// randomizes map iteration, and a similarity that moved in its last bit
// from one run to the next would reorder every ranking built on it
// (grade points such as 3.7 make the terms inexact; integer ratings
// never showed it).
func InvEuclidean(a, b Vector) float64 {
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	var buf [16]float64 // pairs rarely share more courses than this
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
	slices.Sort(terms)
	sum := 0.0
	for _, t := range terms {
		sum += t
	}
	return 1 / (1 + math.Sqrt(sum))
}

// Cosine computes the cosine similarity of two sparse vectors with
// missing keys treated as zero (the standard sparse definition): the dot
// product runs over common keys but each norm spans the whole vector, so
// a pair with a single shared rating does not degenerate to similarity
// 1. Zero-norm vectors have similarity 0.
func Cosine(a, b Vector) float64 {
	var dot float64
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	for k, x := range small {
		if y, ok := big[k]; ok {
			dot += x * y
		}
	}
	if dot == 0 {
		return 0
	}
	var na, nb float64
	for _, x := range a {
		na += x * x
	}
	for _, y := range b {
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Pearson computes the Pearson correlation of two sparse vectors over
// their common keys, in [-1,1]. It requires at least two common keys and
// non-degenerate variance; otherwise it returns 0.
func Pearson(a, b Vector) float64 {
	av, bv := commonKeys(a, b)
	n := float64(len(av))
	if n < 2 {
		return 0
	}
	var sa, sb float64
	for i := range av {
		sa += av[i]
		sb += bv[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range av {
		da, db := av[i]-ma, bv[i]-mb
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
