// Package cloud computes Data Clouds (paper §3.1): tag clouds whose
// "tags" are the most significant terms found in the results of a keyword
// search over the database. Terms are scored by contrasting their
// frequency inside the result set against the whole corpus, so the cloud
// surfaces concepts that characterize *these* results ("Latin American",
// "Indians", "politics" for the query "American") rather than globally
// common words. Cloud terms are hyperlink-like handles for refinement:
// clicking one narrows the search (Figure 3 → Figure 4).
//
// The kernel works on textindex term ids, never on strings. Per-call
// state lives in a scratch taken from a sync.Pool: dense counts and
// bigram maxima indexed by term id, sized to the vocabulary and grown on
// demand, plus a touch list of the ids whose count left zero. Filtering,
// subsumption and ranking all read ids; only the few surviving terms
// become Terms, whose Text is the index's own string. The invariant that
// makes the pool safe: before a scratch goes back, every slot the touch
// list names is zeroed, so each call starts from all-zero slices.
package cloud

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"courserank/internal/textindex"
)

// Term is one cloud entry.
type Term struct {
	Text       string  // display text, e.g. "latin american"
	ResultDocs int     // result documents containing the term
	Score      float64 // significance score (higher = more characteristic)
	Weight     int     // display bucket 1..MaxWeight (font size)
}

// MaxWeight is the number of display size buckets.
const MaxWeight = 5

// Options tunes cloud computation. The zero value selects sensible
// defaults (40 terms, minimum 2 result docs).
type Options struct {
	// MaxTerms caps the cloud size; 0 means 40.
	MaxTerms int
	// MinDocs drops terms appearing in fewer result documents; 0 means 2
	// (a term seen once is noise, not a theme).
	MinDocs int
	// Exclude removes the given terms (typically the query's own terms);
	// matching is on tokenized form.
	Exclude []string
}

func (o Options) maxTerms() int {
	if o.MaxTerms <= 0 {
		return 40
	}
	return o.MaxTerms
}

func (o Options) minDocs() int {
	if o.MinDocs <= 0 {
		return 2
	}
	return o.MinDocs
}

// Cloud is a computed data cloud, terms ordered by descending score.
type Cloud struct {
	Terms      []Term
	ResultSize int // number of result documents summarized
}

// scratch is one Compute call's working state. counts and bigramMax are
// indexed by term id and are all zero between calls; touched lists the
// ids whose count left zero, which are the only slots either slice may
// hold non-zero (a bigram in a result document puts both its words there
// too).
type scratch struct {
	counts    []int32 // term id → result documents containing it
	bigramMax []int32 // unigram id → largest rdf of a bigram subsuming it
	touched   []int32
	excluded  []int32
	cands     []cand
}

// cand is a term that passed the filters.
type cand struct {
	id    int32
	rdf   int32
	score float64
	text  string
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a zeroed scratch whose slices cover vocab ids.
func getScratch(vocab int) *scratch {
	s := scratchPool.Get().(*scratch)
	if len(s.counts) < vocab {
		s.counts = make([]int32, vocab)
		s.bigramMax = make([]int32, vocab)
	}
	return s
}

// putScratch zeroes the touched slots and returns s to the pool.
func putScratch(s *scratch) {
	for _, id := range s.touched {
		s.counts[id] = 0
		s.bigramMax[id] = 0
	}
	clear(s.cands) // drop the term texts, so an idle scratch pins no index
	s.touched, s.excluded, s.cands = s.touched[:0], s.excluded[:0], s.cands[:0]
	scratchPool.Put(s)
}

// Compute builds the data cloud for a set of result document ids over the
// given index. Each term's significance is
//
//	score = rdf × log(1 + N/df)
//
// where rdf counts result documents containing the term, df counts corpus
// documents, and N is the corpus size — result-frequency damped by
// corpus-rarity, the classic "significant terms" contrast. The index must
// be finished.
func Compute(ix *textindex.Index, docIDs []int64, opts Options) *Cloud {
	s := getScratch(ix.VocabSize())
	defer putScratch(s)
	n := float64(ix.DocCount())
	for _, t := range opts.Exclude {
		if id, ok := ix.TermID(t); ok {
			s.excluded = append(s.excluded, id)
		}
	}
	s.touched = ix.CountTerms(docIDs, s.counts, s.touched)

	minDocs := int32(opts.minDocs())
	for _, id := range s.touched {
		c := s.counts[id]
		if c < minDocs || ix.Numeric(id) || slices.Contains(s.excluded, id) {
			continue
		}
		score := float64(c) * math.Log(1+n/float64(ix.DF(id)))
		s.cands = append(s.cands, cand{id: id, rdf: c, score: score})
	}

	// Subsumption: a unigram that occurs (almost) only inside a candidate
	// bigram is redundant — the bigram carries the concept. Excluded
	// phrases subsume too: refining by "african american" must not
	// resurface the bare "african".
	for _, c := range s.cands {
		s.noteBigram(ix, c.id)
	}
	for _, id := range s.excluded {
		s.noteBigram(ix, id)
	}
	kept := s.cands[:0]
	for _, c := range s.cands {
		if left, _ := ix.Bigram(c.id); left < 0 {
			if bm := s.bigramMax[c.id]; bm > 0 && float64(bm) >= 0.8*float64(c.rdf) {
				continue
			}
		}
		c.text = ix.Term(c.id)
		kept = append(kept, c)
	}
	slices.SortFunc(kept, byScore)
	cands := kept[:min(len(kept), opts.maxTerms())]

	out := &Cloud{ResultSize: len(docIDs), Terms: make([]Term, len(cands))}
	if len(cands) == 0 {
		return out
	}
	// Weight buckets: linear split of the score range, so the strongest
	// theme renders largest.
	lo, hi := cands[len(cands)-1].score, cands[0].score
	span := hi - lo
	for i, c := range cands {
		w := MaxWeight
		if span > 0 {
			w = 1 + int(float64(MaxWeight-1)*(c.score-lo)/span+0.5)
			if w > MaxWeight {
				w = MaxWeight
			}
			if w < 1 {
				w = 1
			}
		}
		out.Terms[i] = Term{Text: c.text, ResultDocs: int(c.rdf), Score: c.score, Weight: w}
	}
	return out
}

// noteBigram raises bigramMax for both words of bigram id to its result
// count; a unigram notes nothing.
func (s *scratch) noteBigram(ix *textindex.Index, id int32) {
	left, right := ix.Bigram(id)
	if left < 0 {
		return
	}
	c := s.counts[id]
	s.bigramMax[left] = max(s.bigramMax[left], c)
	s.bigramMax[right] = max(s.bigramMax[right], c)
}

// byScore orders candidates by descending score, then ascending text.
func byScore(a, b cand) int {
	if c := cmp.Compare(b.score, a.score); c != 0 {
		return c
	}
	return strings.Compare(a.text, b.text)
}

// Has reports whether the cloud contains the term (tokenized form).
func (c *Cloud) Has(term string) bool {
	want := strings.Join(textindex.Tokenize(term), " ")
	for _, t := range c.Terms {
		if t.Text == want {
			return true
		}
	}
	return false
}

// Alphabetical returns the terms sorted for display, the way classic tag
// clouds lay out alphabetically with size encoding importance.
func (c *Cloud) Alphabetical() []Term {
	out := append([]Term(nil), c.Terms...)
	sort.Slice(out, func(a, b int) bool { return out[a].Text < out[b].Text })
	return out
}

// String renders the cloud compactly as "term(weight)" entries in
// alphabetical order.
func (c *Cloud) String() string {
	var b strings.Builder
	for i, t := range c.Alphabetical() {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(t.Text)
		b.WriteByte('(')
		b.WriteByte(byte('0' + t.Weight))
		b.WriteByte(')')
	}
	return b.String()
}
