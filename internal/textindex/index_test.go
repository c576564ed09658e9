package textindex

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"American History", []string{"american", "history"}},
		{"The history of the Americas!", []string{"history", "americas"}},
		{"CS106: Programming, Abstractions.", []string{"cs106", "programming", "abstractions"}},
		{"a an the of", nil},
		{"student's view", []string{"students", "view"}},
		{"x", nil}, // single char dropped
		{"", nil},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: tokenizing is idempotent — re-tokenizing the joined output
// yields the same tokens.
func TestTokenizeIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		first := Tokenize(s)
		second := Tokenize(strings.Join(first, " "))
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBigrams(t *testing.T) {
	got := Bigrams([]string{"latin", "american", "history"})
	want := []string{"latin american", "american history"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Bigrams = %v", got)
	}
	if Bigrams([]string{"solo"}) != nil {
		t.Error("single token has no bigrams")
	}
}

func buildIndex(t *testing.T) *Index {
	t.Helper()
	ix := MustNew(Field{Name: "title", Weight: 3}, Field{Name: "body", Weight: 1})
	docs := []struct {
		id    int64
		title string
		body  string
	}{
		{1, "American History", "a survey of american politics and culture"},
		{2, "Latin American Studies", "literature and politics of latin america"},
		{3, "African American Literature", "american writers and the african american experience"},
		{4, "Greek Science", "history of science with famous greek scientists"},
		{5, "Intro to Java", "java programming for beginners covering american coding style"},
	}
	for _, d := range docs {
		if err := ix.Add(d.id, []string{d.title, d.body}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Finish()
	return ix
}

func TestSearchConjunctive(t *testing.T) {
	ix := buildIndex(t)
	hits := ix.Search(ParseQuery("american"), 0)
	if len(hits) != 4 {
		t.Fatalf("american hits = %v", hits)
	}
	hits = ix.Search(ParseQuery("american politics"), 0)
	if len(hits) != 2 {
		t.Fatalf("american politics hits = %v", hits)
	}
	if hits := ix.Search(ParseQuery("nonexistentword"), 0); hits != nil {
		t.Errorf("unknown term should match nothing, got %v", hits)
	}
	if hits := ix.Search(Query{}, 0); hits != nil {
		t.Errorf("empty query should match nothing")
	}
}

func TestSearchTitleWeighting(t *testing.T) {
	ix := buildIndex(t)
	// Doc 1 has "american" in the title (weight 3); doc 5 only in body.
	hits := ix.Search(ParseQuery("american"), 0)
	rank := map[int64]int{}
	for i, h := range hits {
		rank[h.DocID] = i
	}
	if rank[1] > rank[5] {
		t.Errorf("title match should outrank body match: %v", hits)
	}
}

func TestPhraseSearch(t *testing.T) {
	ix := buildIndex(t)
	hits := ix.Search(ParseQuery(`"african american"`), 0)
	if len(hits) != 1 || hits[0].DocID != 3 {
		t.Fatalf("phrase hits = %v", hits)
	}
	// Refinement semantics: keyword + phrase conjunction.
	hits = ix.Search(ParseQuery(`american "latin american"`), 0)
	if len(hits) != 1 || hits[0].DocID != 2 {
		t.Fatalf("refined hits = %v", hits)
	}
}

func TestParseQuery(t *testing.T) {
	q := ParseQuery(`history "latin american" java`)
	if !reflect.DeepEqual(q.Keywords, []string{"history", "java"}) {
		t.Errorf("Keywords = %v", q.Keywords)
	}
	if !reflect.DeepEqual(q.Phrases, []string{"latin american"}) {
		t.Errorf("Phrases = %v", q.Phrases)
	}
	// A long quoted phrase becomes a bigram chain.
	q = ParseQuery(`"history of modern science"`)
	if !reflect.DeepEqual(q.Phrases, []string{"history modern", "modern science"}) {
		t.Errorf("Phrases = %v", q.Phrases)
	}
	// Quoted single word degrades to a keyword.
	q = ParseQuery(`"java"`)
	if len(q.Keywords) != 1 || q.Keywords[0] != "java" {
		t.Errorf("quoted single word: %v", q)
	}
	if got := ParseQuery(`a "b`).String(); got != "" {
		t.Errorf("unterminated quote should yield empty query, got %q", got)
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Keywords: []string{"american"}, Phrases: []string{"latin american"}}
	if got := q.String(); got != `american "latin american"` {
		t.Errorf("String = %q", got)
	}
}

func TestCountMatchesSearch(t *testing.T) {
	ix := buildIndex(t)
	for _, qs := range []string{"american", "american politics", `"african american"`, "science"} {
		q := ParseQuery(qs)
		if got, want := ix.Count(q), len(ix.Search(q, 0)); got != want {
			t.Errorf("Count(%q) = %d, Search len = %d", qs, got, want)
		}
	}
	if ix.Count(Query{}) != 0 {
		t.Error("empty query Count should be 0")
	}
	if ix.Count(ParseQuery("zzzz")) != 0 {
		t.Error("unknown term Count should be 0")
	}
}

func TestTermIDAPI(t *testing.T) {
	ix := buildIndex(t)
	df := func(term string) int {
		id, ok := ix.TermID(term)
		if !ok {
			return 0
		}
		if got := ix.Term(id); got != strings.Join(Tokenize(term), " ") {
			t.Errorf("Term(TermID(%q)) = %q", term, got)
		}
		return ix.DF(id)
	}
	if got := df("american"); got != 4 {
		t.Errorf("DF(american) = %d, want 4", got)
	}
	if got := df("African American"); got != 1 {
		t.Errorf("DF(bigram) = %d, want 1", got)
	}
	if _, ok := ix.TermID("nope"); ok {
		t.Error("TermID(nope) should report false")
	}
	if _, ok := ix.TermID("african american experience"); ok {
		t.Error("a three-token phrase is never a term")
	}

	// Interned facts: a bigram knows its unigrams, a unigram has none.
	bg, _ := ix.TermID("african american")
	african, _ := ix.TermID("african")
	american, _ := ix.TermID("american")
	if l, r := ix.Bigram(bg); l != african || r != american {
		t.Errorf("Bigram(african american) = %d, %d, want %d, %d", l, r, african, american)
	}
	if l, r := ix.Bigram(american); l != -1 || r != -1 {
		t.Errorf("Bigram(american) = %d, %d, want -1, -1", l, r)
	}

	// CountTerms counts documents, not occurrences: doc 3 says
	// "american" three times and "african american" twice.
	counts := make([]int32, ix.VocabSize())
	touched := ix.CountTerms([]int64{3, 99}, counts, nil)
	if counts[american] != 1 || counts[bg] != 1 {
		t.Errorf("doc 3 counts: american %d, african american %d, want 1, 1", counts[american], counts[bg])
	}
	// A repeated doc counts again; each id is touched once.
	touched = ix.CountTerms([]int64{3}, counts, touched)
	seen := map[int32]bool{}
	for _, id := range touched {
		if seen[id] {
			t.Fatalf("id %d touched twice", id)
		}
		seen[id] = true
		if counts[id] != 2 {
			t.Errorf("%q counted %d times, want 2", ix.Term(id), counts[id])
		}
	}
	for id, c := range counts {
		if c != 0 && !seen[int32(id)] {
			t.Errorf("%q counted but not touched", ix.Term(int32(id)))
		}
	}
	if !seen[bg] || !seen[american] || len(touched) == 0 {
		t.Errorf("touched misses doc 3's terms: %v", touched)
	}
}

func TestNumericFlag(t *testing.T) {
	ix := MustNew(Field{Name: "f", Weight: 1})
	if err := ix.Add(1, []string{"cs106 offered 2008 2009, λόγος ٢٠٠٨"}); err != nil {
		t.Fatal(err)
	}
	ix.Finish()
	for term, want := range map[string]bool{
		"2008": true, "2008 2009": true, "٢٠٠٨": true, // Arabic-Indic digits
		"cs106": false, "offered 2008": false, "λόγος": false, "2009 λόγος": false,
	} {
		id, ok := ix.TermID(term)
		if !ok {
			t.Fatalf("%q not indexed", term)
		}
		if got := ix.Numeric(id); got != want {
			t.Errorf("Numeric(%q) = %v, want %v", term, got, want)
		}
	}
}

func TestCountTermsBeforeFinishPanics(t *testing.T) {
	ix := MustNew(Field{Name: "f", Weight: 1})
	if err := ix.Add(1, []string{"hello world"}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("CountTerms before Finish should panic")
		}
	}()
	ix.CountTerms([]int64{1}, make([]int32, ix.VocabSize()), nil)
}

func TestTermIDAllocatesNothing(t *testing.T) {
	ix := buildIndex(t)
	if n := testing.AllocsPerRun(100, func() { ix.TermID("african american") }); n != 0 {
		t.Errorf("TermID allocates %.0f times per call, want 0", n)
	}
}

func TestAddErrors(t *testing.T) {
	ix := MustNew(Field{Name: "f", Weight: 1})
	if err := ix.Add(1, []string{"a", "b"}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := ix.Add(1, []string{"hello world"}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(1, []string{"again"}); err == nil {
		t.Error("duplicate doc id should fail")
	}
	ix.Finish()
	if err := ix.Add(2, []string{"too late"}); err == nil {
		t.Error("Add after Finish should fail")
	}
	ix.Finish() // idempotent
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("no fields should fail")
	}
	if _, err := New(Field{Name: "f", Weight: 0}); err == nil {
		t.Error("zero weight should fail")
	}
	if _, err := New(Field{Name: "f", Weight: 1}, Field{Name: "F", Weight: 1}); err == nil {
		t.Error("duplicate field should fail")
	}
}

func TestSearchLimitAndDeterminism(t *testing.T) {
	ix := MustNew(Field{Name: "f", Weight: 1})
	for i := int64(1); i <= 20; i++ {
		if err := ix.Add(i, []string{"common word"}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Finish()
	hits := ix.Search(ParseQuery("common"), 5)
	if len(hits) != 5 {
		t.Fatalf("limit ignored: %d hits", len(hits))
	}
	// Equal scores tie-break by ascending doc id.
	for i, h := range hits {
		if h.DocID != int64(i+1) {
			t.Errorf("hit %d = doc %d, want %d", i, h.DocID, i+1)
		}
	}
}

// Property: every document added with a marker token is findable, and
// Search with a limit never returns more than the limit.
func TestSearchRecallProperty(t *testing.T) {
	f := func(n uint8) bool {
		ix := MustNew(Field{Name: "f", Weight: 1})
		docs := int(n%32) + 1
		for i := 0; i < docs; i++ {
			if err := ix.Add(int64(i), []string{fmt.Sprintf("marker%d shared filler", i)}); err != nil {
				return false
			}
		}
		ix.Finish()
		if len(ix.Search(ParseQuery("shared"), 0)) != docs {
			return false
		}
		for i := 0; i < docs; i++ {
			hits := ix.Search(ParseQuery(fmt.Sprintf("marker%d", i)), 0)
			if len(hits) != 1 || hits[0].DocID != int64(i) {
				return false
			}
		}
		return len(ix.Search(ParseQuery("shared"), 3)) <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestVocabAndDocCount(t *testing.T) {
	ix := buildIndex(t)
	if ix.DocCount() != 5 {
		t.Errorf("DocCount = %d", ix.DocCount())
	}
	if ix.VocabSize() == 0 {
		t.Error("VocabSize should be positive")
	}
	if len(ix.Fields()) != 2 {
		t.Error("Fields")
	}
}
