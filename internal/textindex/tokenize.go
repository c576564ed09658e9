// Package textindex provides the full-text substrate for CourseRank: a
// field-aware inverted index with BM25F ranking and per-document term
// statistics. It indexes both unigrams and bigrams, which lets the data
// cloud layer (package cloud) surface multi-word concepts such as
// "Latin American" (paper §3.1) and lets searches refine by phrase.
//
// Every term has a dense id, and the cloud works on ids, never on
// strings. When a term is interned the index records the two facts the
// cloud filters on: a bigram's two unigram ids, and whether the term is
// numeric. CountTerms then tallies a result list's term ids into the
// caller's counts slice under one read lock and appends each id it
// touches for the first time to a touch list. The caller resets counts
// by zeroing only the touched slots, so a reused counts slice costs
// O(touched) per call, not O(vocabulary).
package textindex

import (
	"strings"
	"unicode"
)

// stopwords is a compact English stopword list. Stopwords are excluded
// from the index and never participate in bigrams.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`a about above after again all also am an and any are as at be because
		been before being below between both but by can could did do does doing down during each few for from
		further had has have having he her here hers him his how i if in into is it its itself just me more
		most my no nor not of off on once only or other our ours out over own same she should so some such
		than that the their theirs them then there these they this those through to too under until up very
		was we were what when where which while who whom why will with you your yours s t d ll m re ve`) {
		stopwords[w] = true
	}
}

// Tokenize lowercases text and splits it into alphanumeric tokens,
// dropping stopwords and single-character tokens. Token order is
// preserved; a sentinel gap is NOT inserted at punctuation, so bigram
// formation (see Bigrams) treats clause boundaries as adjacency — the
// same simplification classic tag-cloud systems make.
func Tokenize(text string) []string {
	return TokenizeInto(text, nil)
}

// TokenizeInto is Tokenize appending into buf's backing array (from
// buf[:0]), for callers that tokenize in a loop and drop each result
// before the next call — scoring loops tokenize thousands of titles
// per recommendation, and reusing one buffer removes the slice-growth
// garbage entirely. The returned slice aliases buf; pass it back in as
// the next call's buf. Tokens themselves remain independent strings.
func TokenizeInto(text string, buf []string) []string {
	// Lowercase once, then slice tokens out of the lowered string so
	// each token shares its backing memory instead of being built rune
	// by rune — this is the hot path of indexing, clouds and Jaccard
	// comparisons alike.
	lower := strings.ToLower(text)
	out := buf[:0]
	start := -1
	apos := false
	flush := func(end int) {
		if start < 0 {
			return
		}
		w := lower[start:end]
		start = -1
		if apos {
			// Drop apostrophes so "student's" tokenizes as "students".
			w = strings.ReplaceAll(w, "'", "")
			apos = false
		}
		if len(w) < 2 || stopwords[w] {
			return
		}
		out = append(out, w)
	}
	for i, r := range lower {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if start < 0 {
				start = i
			}
		case r == '\'':
			apos = apos || start >= 0
		default:
			flush(i)
		}
	}
	flush(len(lower))
	return out
}

// allDigits reports whether every rune of tok is a decimal digit.
func allDigits(tok string) bool {
	for _, r := range tok {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// Bigrams returns the adjacent-pair phrases of a token stream, each as
// "w1 w2". Tokens must already be stopword-free (as Tokenize produces).
func Bigrams(tokens []string) []string {
	if len(tokens) < 2 {
		return nil
	}
	out := make([]string, 0, len(tokens)-1)
	for i := 0; i+1 < len(tokens); i++ {
		out = append(out, tokens[i]+" "+tokens[i+1])
	}
	return out
}
