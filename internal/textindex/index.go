package textindex

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Field declares one weighted document field. Weights express how much a
// term occurrence in this field contributes to relevance — the paper's
// question "should a course that mentions Java in its title score the
// same as one that mentions it in the comments?" (§3.1) is answered by
// giving the title a higher weight.
type Field struct {
	Name   string
	Weight float64
}

// posting records one (document, field) occurrence count of a term.
type posting struct {
	doc   int32 // ordinal into Index.docs
	field uint8
	freq  int32
}

// termInfo is what the index knows about one term id. Everything but df
// is fixed when the term is interned.
type termInfo struct {
	text        string
	df          int32 // documents containing the term
	left, right int32 // a bigram's two unigram ids; -1 for a unigram
	numeric     bool  // every rune of every token is a decimal digit
}

// docEntry is the per-document state.
type docEntry struct {
	id       int64
	fieldLen []int32 // tokens per field
	terms    []int32 // forward index: the distinct term ids, ascending
}

// Index is an inverted index over documents with weighted fields. Add all
// documents, then Finish once before searching; the index is then safe
// for concurrent readers.
type Index struct {
	mu       sync.RWMutex
	fields   []Field
	fieldIdx map[string]int

	vocab    map[string]int32
	terms    []termInfo  // term id → text, df and interned facts
	postings [][]posting // term id → postings, in doc-ordinal order

	docs     []docEntry
	byID     map[int64]int32
	totalLen []int64 // per-field token totals, for BM25F length norm
	finished bool
}

// New creates an index with the given fields. At least one field is
// required; weights must be positive.
func New(fields ...Field) (*Index, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("textindex: at least one field required")
	}
	if len(fields) > 250 {
		return nil, fmt.Errorf("textindex: too many fields")
	}
	ix := &Index{
		fields:   append([]Field(nil), fields...),
		fieldIdx: make(map[string]int, len(fields)),
		vocab:    make(map[string]int32),
		byID:     make(map[int64]int32),
		totalLen: make([]int64, len(fields)),
	}
	for i, f := range fields {
		if f.Weight <= 0 {
			return nil, fmt.Errorf("textindex: field %q must have positive weight", f.Name)
		}
		key := strings.ToLower(f.Name)
		if _, dup := ix.fieldIdx[key]; dup {
			return nil, fmt.Errorf("textindex: duplicate field %q", f.Name)
		}
		ix.fieldIdx[key] = i
	}
	return ix, nil
}

// MustNew is New that panics on error; for statically known field sets.
func MustNew(fields ...Field) *Index {
	ix, err := New(fields...)
	if err != nil {
		panic(err)
	}
	return ix
}

// Fields returns the field definitions.
func (ix *Index) Fields() []Field { return append([]Field(nil), ix.fields...) }

// intern returns the term's id, adding it to the vocabulary on first
// sight. left and right are a bigram's unigram ids, -1 for a unigram.
func (ix *Index) intern(term string, left, right int32) int32 {
	if id, ok := ix.vocab[term]; ok {
		return id
	}
	// Tokenize returns slices into the document's lowered text; clone
	// before storing so the vocabulary doesn't pin whole documents.
	term = strings.Clone(term)
	id := int32(len(ix.terms))
	info := termInfo{text: term, left: left, right: right}
	if left < 0 {
		info.numeric = allDigits(term)
	} else {
		info.numeric = ix.terms[left].numeric && ix.terms[right].numeric
	}
	ix.vocab[term] = id
	ix.terms = append(ix.terms, info)
	ix.postings = append(ix.postings, nil)
	return id
}

// Add indexes a document. fieldValues align positionally with the fields
// passed to New; a document id may be added only once.
func (ix *Index) Add(docID int64, fieldValues []string) error {
	if len(fieldValues) != len(ix.fields) {
		return fmt.Errorf("textindex: got %d field values, want %d", len(fieldValues), len(ix.fields))
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.finished {
		return fmt.Errorf("textindex: cannot Add after Finish")
	}
	if _, dup := ix.byID[docID]; dup {
		return fmt.Errorf("textindex: duplicate document id %d", docID)
	}
	ord := int32(len(ix.docs))
	entry := docEntry{id: docID, fieldLen: make([]int32, len(ix.fields))}
	perField := make([]map[int32]int32, len(ix.fields))
	docTerms := make(map[int32]struct{})
	var words []int32 // one field's unigram ids, in token order
	for fi, text := range fieldValues {
		toks := Tokenize(text)
		entry.fieldLen[fi] = int32(len(toks))
		ix.totalLen[fi] += int64(len(toks))
		counts := make(map[int32]int32, len(toks)*2)
		words = words[:0]
		for _, w := range toks {
			id := ix.intern(w, -1, -1)
			words = append(words, id)
			counts[id]++
		}
		for i, bg := range Bigrams(toks) {
			counts[ix.intern(bg, words[i], words[i+1])]++
		}
		perField[fi] = counts
		for id := range counts {
			docTerms[id] = struct{}{}
		}
	}
	for fi, counts := range perField {
		for id, c := range counts {
			ix.postings[id] = append(ix.postings[id], posting{doc: ord, field: uint8(fi), freq: c})
		}
	}
	entry.terms = make([]int32, 0, len(docTerms))
	for id := range docTerms {
		entry.terms = append(entry.terms, id)
		ix.terms[id].df++
	}
	slices.Sort(entry.terms)
	ix.docs = append(ix.docs, entry)
	ix.byID[docID] = ord
	return nil
}

// Finish seals the index and sorts postings for deterministic iteration.
// It is idempotent.
func (ix *Index) Finish() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.finished {
		return
	}
	for _, plist := range ix.postings {
		sort.Slice(plist, func(a, b int) bool {
			if plist[a].doc != plist[b].doc {
				return plist[a].doc < plist[b].doc
			}
			return plist[a].field < plist[b].field
		})
	}
	ix.finished = true
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// The term-id API. Ids are dense, 0 … VocabSize()-1, and a finished
// index never changes them, so a caller can keep per-term state in plain
// slices indexed by id. Term, DF, Bigram and Numeric take no lock: they
// are valid once Finish has returned, which CountTerms enforces.

// TermID returns the id of a term or "w1 w2" bigram, matching on the
// tokenized form ("Latin American" finds "latin american"). ok is false
// when the index has no such term; a phrase of three or more tokens is
// never one.
func (ix *Index) TermID(term string) (id int32, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.lookup(term)
}

// lookup is TermID under the caller's lock. Tokens and key live in
// stack buffers, so a short term allocates nothing.
func (ix *Index) lookup(term string) (int32, bool) {
	var tokBuf [4]string
	var keyBuf [64]byte
	key := keyBuf[:0]
	for i, tok := range TokenizeInto(term, tokBuf[:0]) {
		if i > 0 {
			key = append(key, ' ')
		}
		key = append(key, tok...)
	}
	id, ok := ix.vocab[string(key)]
	return id, ok
}

// Term returns the indexed text of term id: the index's own string, not
// a copy.
func (ix *Index) Term(id int32) string { return ix.terms[id].text }

// DF returns how many documents contain term id.
func (ix *Index) DF(id int32) int { return int(ix.terms[id].df) }

// Bigram returns the unigram ids of bigram id, or -1, -1 for a unigram.
func (ix *Index) Bigram(id int32) (left, right int32) {
	return ix.terms[id].left, ix.terms[id].right
}

// Numeric reports whether term id consists only of digits: every rune
// of every token is a decimal digit in some script.
func (ix *Index) Numeric(id int32) bool { return ix.terms[id].numeric }

// CountTerms adds one to counts[t] for each distinct term t of each
// listed document, appends t to touched when its count leaves zero, and
// returns touched. counts needs VocabSize() slots and must be zero
// outside what touched already lists; a caller resets it by zeroing
// exactly the touched slots. Ids the index lacks are skipped, a repeated
// id counts again, and one read lock covers the whole list. It panics
// before Finish.
func (ix *Index) CountTerms(docIDs []int64, counts, touched []int32) []int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.finished {
		panic("textindex: CountTerms before Finish")
	}
	for _, id := range docIDs {
		ord, ok := ix.byID[id]
		if !ok {
			continue
		}
		for _, t := range ix.docs[ord].terms {
			if counts[t] == 0 {
				touched = append(touched, t)
			}
			counts[t]++
		}
	}
	return touched
}

// Hit is one search result.
type Hit struct {
	DocID int64
	Score float64
}

// Query is a conjunctive keyword query: every keyword and every phrase
// must occur somewhere in a matching document.
type Query struct {
	Keywords []string // single tokens
	Phrases  []string // "w1 w2" bigram phrases
}

// Empty reports whether the query has no terms.
func (q Query) Empty() bool { return len(q.Keywords) == 0 && len(q.Phrases) == 0 }

// Terms returns all query terms in indexed form (keywords then phrases).
func (q Query) Terms() []string {
	out := append([]string(nil), q.Keywords...)
	return append(out, q.Phrases...)
}

// String renders the query in user syntax (phrases quoted).
func (q Query) String() string {
	parts := append([]string(nil), q.Keywords...)
	for _, p := range q.Phrases {
		parts = append(parts, `"`+p+`"`)
	}
	return strings.Join(parts, " ")
}

// ParseQuery splits a query string into keywords and quoted phrases.
// Unquoted multi-word input becomes a conjunction of keywords; quoted
// spans become phrase terms (split into bigram chains when longer than
// two words).
func ParseQuery(s string) Query {
	var q Query
	for {
		open := strings.IndexByte(s, '"')
		if open < 0 {
			break
		}
		closeIdx := strings.IndexByte(s[open+1:], '"')
		if closeIdx < 0 {
			break
		}
		phrase := s[open+1 : open+1+closeIdx]
		toks := Tokenize(phrase)
		switch {
		case len(toks) == 1:
			q.Keywords = append(q.Keywords, toks[0])
		case len(toks) >= 2:
			q.Phrases = append(q.Phrases, Bigrams(toks)...)
		}
		s = s[:open] + " " + s[open+1+closeIdx+1:]
	}
	q.Keywords = append(q.Keywords, Tokenize(s)...)
	return q
}

// bm25 constants (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Search returns documents matching every term of the query, ranked by a
// BM25F-style score in which each field's term frequency is scaled by the
// field weight and normalized by the field length. limit <= 0 returns all
// matches. Results are ordered by descending score, then ascending doc id
// for determinism.
func (ix *Index) Search(q Query, limit int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if q.Empty() || len(ix.docs) == 0 {
		return nil
	}
	terms := make([]int32, 0, len(q.Keywords)+len(q.Phrases))
	for _, t := range q.Terms() {
		id, ok := ix.lookup(t)
		if !ok {
			return nil // conjunctive: an unknown term matches nothing
		}
		terms = append(terms, id)
	}
	// Intersect candidate docs starting from the rarest term.
	sort.Slice(terms, func(a, b int) bool { return ix.terms[terms[a]].df < ix.terms[terms[b]].df })
	candidates := docSet(ix.postings[terms[0]])
	for _, t := range terms[1:] {
		if len(candidates) == 0 {
			return nil
		}
		next := make(map[int32]struct{}, len(candidates))
		for _, p := range ix.postings[t] {
			if _, ok := candidates[p.doc]; ok {
				next[p.doc] = struct{}{}
			}
		}
		candidates = next
	}
	if len(candidates) == 0 {
		return nil
	}
	// Score candidates with BM25F.
	n := float64(len(ix.docs))
	avgLen := make([]float64, len(ix.fields))
	for fi := range ix.fields {
		avgLen[fi] = float64(ix.totalLen[fi]) / n
		if avgLen[fi] == 0 {
			avgLen[fi] = 1
		}
	}
	scores := make(map[int32]float64, len(candidates))
	for _, t := range terms {
		df := float64(ix.terms[t].df)
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, p := range ix.postings[t] {
			if _, ok := candidates[p.doc]; !ok {
				continue
			}
			fl := float64(ix.docs[p.doc].fieldLen[p.field])
			norm := 1 - bm25B + bm25B*fl/avgLen[p.field]
			wtf := ix.fields[p.field].Weight * float64(p.freq) / norm
			scores[p.doc] += idf * wtf / (bm25K1 + wtf)
		}
	}
	hits := make([]Hit, 0, len(scores))
	for ord, s := range scores {
		hits = append(hits, Hit{DocID: ix.docs[ord].id, Score: s})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].DocID < hits[b].DocID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// Count returns the number of documents matching the conjunctive query
// without scoring them.
func (ix *Index) Count(q Query) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if q.Empty() {
		return 0
	}
	terms := make([]int32, 0, 4)
	for _, t := range q.Terms() {
		id, ok := ix.lookup(t)
		if !ok {
			return 0
		}
		terms = append(terms, id)
	}
	sort.Slice(terms, func(a, b int) bool { return ix.terms[terms[a]].df < ix.terms[terms[b]].df })
	candidates := docSet(ix.postings[terms[0]])
	for _, t := range terms[1:] {
		next := make(map[int32]struct{}, len(candidates))
		for _, p := range ix.postings[t] {
			if _, ok := candidates[p.doc]; ok {
				next[p.doc] = struct{}{}
			}
		}
		candidates = next
	}
	return len(candidates)
}

func docSet(ps []posting) map[int32]struct{} {
	set := make(map[int32]struct{}, len(ps))
	for _, p := range ps {
		set[p.doc] = struct{}{}
	}
	return set
}

// VocabSize returns the number of distinct indexed terms (unigrams plus
// bigrams).
func (ix *Index) VocabSize() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.terms)
}
