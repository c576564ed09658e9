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
	"unicode/utf8"
	"unsafe"
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
	return tokenizeLower(strings.ToLower(text), buf[:0])
}

// tokenizeLower is the tokenizer proper over already lowercased text,
// appending to out. Tokens are substrings of lower, except that a token
// holding an apostrophe is a new string without it.
func tokenizeLower(lower string, out []string) []string {
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

// Tokenizer tokenizes text after text, each as Tokenize would, for a
// caller that is done with one text's tokens before it asks for the
// next: a scoring loop over a catalog's titles. Text that is all ASCII
// is lowercased into one buffer the tokenizer reuses, and its tokens are
// slices of that buffer, so such a text allocates nothing; other text
// is lowercased by strings.ToLower. The zero value is ready to use; a
// Tokenizer is not safe for concurrent use.
type Tokenizer struct {
	lower []byte
	toks  []string
}

// Tokens returns text's tokens. The slice and the tokens in it are valid
// only until the next call: the next text overwrites them.
func (t *Tokenizer) Tokens(text string) []string {
	lower, ok := t.lowerASCII(text)
	if !ok {
		lower = strings.ToLower(text)
	}
	t.toks = tokenizeLower(lower, t.toks[:0])
	return t.toks
}

// lowerASCII lowercases text into t's buffer and views the buffer as a
// string, reporting false for text that is not all ASCII.
func (t *Tokenizer) lowerASCII(text string) (string, bool) {
	buf := t.lower[:0]
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			t.lower = buf
			return "", false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	t.lower = buf
	return unsafe.String(unsafe.SliceData(buf), len(buf)), true
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
