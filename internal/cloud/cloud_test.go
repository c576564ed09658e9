package cloud_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode"

	"courserank/internal/cloud"
	"courserank/internal/datagen"
	"courserank/internal/experiments"
	"courserank/internal/textindex"
)

// corpus builds an index shaped like the Figure 3 scenario: a large body
// of unrelated courses plus an "american" cluster with sub-themes.
func corpus(t *testing.T) (*textindex.Index, []int64) {
	t.Helper()
	ix := textindex.MustNew(textindex.Field{Name: "text", Weight: 1})
	var american []int64
	id := int64(0)
	add := func(text string, inResults bool) {
		id++
		if err := ix.Add(id, []string{text}); err != nil {
			t.Fatal(err)
		}
		if inResults {
			american = append(american, id)
		}
	}
	// Varied sentences, as real comments are: theme words appear in many
	// different bigram contexts so they stand alone in the cloud.
	politics := []string{
		"american history and politics of the united states",
		"modern politics in american life",
		"politics shaped this american century",
		"comparative politics with an american lens",
	}
	for i := 0; i < 12; i++ {
		add(politics[i%len(politics)], true)
	}
	for i := 0; i < 8; i++ {
		add("latin american literature and culture", true)
	}
	for i := 0; i < 5; i++ {
		add("african american experience in american cities", true)
	}
	indians := []string{
		"american indians and tribal nations",
		"indians of the great plains in american memory",
		"history of the indians before american settlement",
	}
	for i := 0; i < 4; i++ {
		add(indians[i%len(indians)], true)
	}
	// Background noise: common words that appear everywhere should score
	// low even if present in results.
	for i := 0; i < 60; i++ {
		add("introduction to chemistry with laboratory units", false)
	}
	for i := 0; i < 40; i++ {
		add("calculus for engineers covering derivatives", false)
	}
	ix.Finish()
	return ix, american
}

func TestComputeSurfacesThemes(t *testing.T) {
	ix, results := corpus(t)
	c := cloud.Compute(ix, results, cloud.Options{Exclude: []string{"american"}})
	if c.ResultSize != len(results) {
		t.Fatalf("ResultSize = %d", c.ResultSize)
	}
	for _, want := range []string{"latin american", "politics", "indians", "african american"} {
		if !c.Has(want) {
			t.Errorf("cloud should contain %q; got %s", want, c.String())
		}
	}
	if c.Has("american") {
		t.Error("query term must be excluded")
	}
	if c.Has("chemistry") {
		t.Error("non-result terms must not appear")
	}
}

func TestSubsumption(t *testing.T) {
	ix, results := corpus(t)
	c := cloud.Compute(ix, results, cloud.Options{Exclude: []string{"american"}})
	// "latin" occurs only inside "latin american": the unigram is
	// subsumed by the bigram.
	if c.Has("latin") {
		t.Errorf("unigram 'latin' should be subsumed by 'latin american': %s", c.String())
	}
	if !c.Has("latin american") {
		t.Errorf("the subsuming bigram 'latin american' should stay: %s", c.String())
	}
	// An excluded phrase subsumes too: refining by "african american"
	// must not resurface the bare "african".
	c = cloud.Compute(ix, results, cloud.Options{MinDocs: 1, Exclude: []string{"american", "African American"}})
	if c.Has("african") || c.Has("african american") {
		t.Errorf("'african' should be subsumed by the excluded phrase: %s", c.String())
	}
}

func TestMinDocsFilter(t *testing.T) {
	ix := textindex.MustNew(textindex.Field{Name: "text", Weight: 1})
	for i := int64(1); i <= 10; i++ {
		// The singleton stands alone: in a longer text a bigram seen
		// just as often would subsume it.
		text := "shared theme words"
		if i == 1 {
			text = "singleton"
		}
		if err := ix.Add(i, []string{text}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Finish()
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	c := cloud.Compute(ix, ids, cloud.Options{})
	if c.Has("singleton") {
		t.Error("default MinDocs=2 should drop single-doc terms")
	}
	c = cloud.Compute(ix, ids, cloud.Options{MinDocs: 1})
	if !c.Has("singleton") {
		t.Error("MinDocs=1 should keep singleton")
	}
}

func TestMaxTermsAndWeights(t *testing.T) {
	ix, results := corpus(t)
	c := cloud.Compute(ix, results, cloud.Options{MaxTerms: 5, Exclude: []string{"american"}})
	if len(c.Terms) > 5 {
		t.Fatalf("MaxTerms violated: %d", len(c.Terms))
	}
	// Scores descend; weights within 1..MaxWeight and non-increasing.
	for i := range c.Terms {
		if c.Terms[i].Weight < 1 || c.Terms[i].Weight > cloud.MaxWeight {
			t.Errorf("weight out of range: %+v", c.Terms[i])
		}
		if i > 0 {
			if c.Terms[i].Score > c.Terms[i-1].Score {
				t.Error("scores must descend")
			}
			if c.Terms[i].Weight > c.Terms[i-1].Weight {
				t.Error("weights must not increase as score drops")
			}
		}
	}
	if c.Terms[0].Weight != cloud.MaxWeight {
		t.Errorf("top term should have max weight, got %d", c.Terms[0].Weight)
	}
}

func TestNumericTermsDropped(t *testing.T) {
	ix := textindex.MustNew(textindex.Field{Name: "text", Weight: 1})
	for i := int64(1); i <= 4; i++ {
		if err := ix.Add(i, []string{"offered 2008 2009 winter quarter cs106"}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Finish()
	c := cloud.Compute(ix, []int64{1, 2, 3, 4}, cloud.Options{MinDocs: 1})
	for _, numeric := range []string{"2008", "2008 2009"} {
		if c.Has(numeric) {
			t.Errorf("pure numbers should be dropped: %s", c.String())
		}
	}
	// "winter" is subsumed by the stronger phrase "winter quarter".
	if !c.Has("winter quarter") {
		t.Error("alphabetic phrases should remain")
	}
	// Mixed alnum tokens like cs106, and phrases with one number, survive.
	if !c.Has("quarter cs106") || !c.Has("offered 2008") {
		t.Errorf("mixed terms should remain: %s", c.String())
	}
}

// TestNonLatinTermsInCloud: a term written in another script is a word,
// not a number. Each theme word below sits in a different bigram in each
// of its three documents, so nothing subsumes it.
func TestNonLatinTermsInCloud(t *testing.T) {
	ix := textindex.MustNew(textindex.Field{Name: "text", Weight: 1})
	docs := []string{
		"λόγος plato логика 2008",
		"heraclitus λόγος seminar логика 2008",
		"логика ancient λόγος 2008",
	}
	for i := 0; i < 20; i++ {
		docs = append(docs, "introduction to chemistry with laboratory units")
	}
	for i, text := range docs {
		if err := ix.Add(int64(i+1), []string{text}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Finish()
	c := cloud.Compute(ix, []int64{1, 2, 3}, cloud.Options{})
	for _, want := range []string{"λόγος", "Логика"} {
		if !c.Has(want) {
			t.Errorf("cloud should contain %q: %q", want, c.String())
		}
	}
	if c.Has("2008") {
		t.Errorf("2008 is numeric: %q", c.String())
	}
}

func TestEmptyResultsAndEmptyCloud(t *testing.T) {
	ix, _ := corpus(t)
	c := cloud.Compute(ix, nil, cloud.Options{})
	if len(c.Terms) != 0 || c.ResultSize != 0 {
		t.Errorf("empty results should yield empty cloud: %+v", c)
	}
	if c.String() != "" {
		t.Error("empty cloud String should be empty")
	}
}

func TestAlphabeticalAndString(t *testing.T) {
	ix, results := corpus(t)
	c := cloud.Compute(ix, results, cloud.Options{Exclude: []string{"american"}})
	alpha := c.Alphabetical()
	for i := 1; i < len(alpha); i++ {
		if alpha[i-1].Text > alpha[i].Text {
			t.Fatal("Alphabetical not sorted")
		}
	}
	s := c.String()
	if !strings.Contains(s, "(") {
		t.Errorf("String misses weights: %q", s)
	}
}

// boundedCorpus is the property corpus: n documents over a few shared
// theme words.
func boundedCorpus(n int) (*textindex.Index, []int64) {
	ix := textindex.MustNew(textindex.Field{Name: "t", Weight: 1})
	ids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		id := int64(i + 1)
		if err := ix.Add(id, []string{fmt.Sprintf("theme alpha beta word%d", i%3)}); err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	ix.Finish()
	return ix, ids
}

// Property: the refinement story holds — the cloud of a subset never
// reports more result docs per term than the superset cloud, and every
// term's ResultDocs is at most the subset size.
func TestCloudCountsBoundedProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%30) + 5
		ix, ids := boundedCorpus(n)
		full := cloud.Compute(ix, ids, cloud.Options{MinDocs: 1})
		half := cloud.Compute(ix, ids[:n/2], cloud.Options{MinDocs: 1})
		fullCount := map[string]int{}
		for _, tm := range full.Terms {
			if tm.ResultDocs > n {
				return false
			}
			fullCount[tm.Text] = tm.ResultDocs
		}
		for _, tm := range half.Terms {
			if tm.ResultDocs > n/2 {
				return false
			}
			if fc, ok := fullCount[tm.Text]; ok && tm.ResultDocs > fc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// referenceCompute is the string-keyed kernel Compute replaced, kept as
// its oracle: one map over every term of every result document, the
// string document frequency, string subsumption and a full sort. It
// reads the index only through the term-id API's counts and texts.
func referenceCompute(ix *textindex.Index, docIDs []int64, opts cloud.Options) *cloud.Cloud {
	maxTerms, minDocs := opts.MaxTerms, opts.MinDocs
	if maxTerms <= 0 {
		maxTerms = 40
	}
	if minDocs <= 0 {
		minDocs = 2
	}
	n := float64(ix.DocCount())
	excluded := make(map[string]bool, len(opts.Exclude))
	for _, t := range opts.Exclude {
		toks := textindex.Tokenize(t)
		if len(toks) > 0 {
			excluded[strings.Join(toks, " ")] = true
		}
	}

	rdf := make(map[string]int)
	counts := make([]int32, ix.VocabSize())
	for _, id := range ix.CountTerms(docIDs, counts, nil) {
		rdf[ix.Term(id)] = int(counts[id])
	}
	docFreq := func(term string) int {
		if id, ok := ix.TermID(term); ok {
			return ix.DF(id)
		}
		return 0
	}

	type cand struct {
		text  string
		rdf   int
		score float64
	}
	var cands []cand
	for term, c := range rdf {
		if c < minDocs || excluded[term] || isNumeric(term) {
			continue
		}
		df := docFreq(term)
		if df == 0 {
			df = c
		}
		score := float64(c) * math.Log(1+n/float64(df))
		cands = append(cands, cand{text: term, rdf: c, score: score})
	}

	bigramMax := make(map[string]int)
	noteBigram := func(text string, n int) {
		if i := strings.IndexByte(text, ' '); i > 0 {
			for _, w := range [2]string{text[:i], text[i+1:]} {
				if n > bigramMax[w] {
					bigramMax[w] = n
				}
			}
		}
	}
	for _, c := range cands {
		noteBigram(c.text, c.rdf)
	}
	for phrase := range excluded {
		noteBigram(phrase, rdf[phrase])
	}
	kept := cands[:0]
	for _, c := range cands {
		if !strings.Contains(c.text, " ") {
			if bm := bigramMax[c.text]; bm > 0 && float64(bm) >= 0.8*float64(c.rdf) {
				continue
			}
		}
		kept = append(kept, c)
	}
	cands = kept

	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].text < cands[b].text
	})
	if len(cands) > maxTerms {
		cands = cands[:maxTerms]
	}

	out := &cloud.Cloud{ResultSize: len(docIDs), Terms: make([]cloud.Term, len(cands))}
	if len(cands) == 0 {
		return out
	}
	lo, hi := cands[len(cands)-1].score, cands[0].score
	span := hi - lo
	for i, c := range cands {
		w := cloud.MaxWeight
		if span > 0 {
			w = 1 + int(float64(cloud.MaxWeight-1)*(c.score-lo)/span+0.5)
			if w > cloud.MaxWeight {
				w = cloud.MaxWeight
			}
			if w < 1 {
				w = 1
			}
		}
		out.Terms[i] = cloud.Term{Text: c.text, ResultDocs: c.rdf, Score: c.score, Weight: w}
	}
	return out
}

// isNumeric reports whether every rune of every token is a digit.
func isNumeric(term string) bool {
	for _, r := range term {
		if r != ' ' && !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// searchTerms and refineTerms are the query vocabulary of the bench
// harness's browse workload (bench/spec.go): every search, and every
// term clicked to refine one.
var (
	searchTerms = []string{
		"american", "computer science", "economics", "jazz", "calculus",
		"culture", "statistics", "music", "immigration", "genetics",
		"society", "probability", "democracy", "climate", "slavery",
		"ecology", "cinema", "evolution", "identity", "neuroscience",
		"frontier", "mechanics", "revolution", "topology", "labor",
		"religion", "press", "african american", "latin american", "indians",
		"civil rights", "greek", "java", "operating systems", "physics",
		"chemistry", "biology", "mathematics", "psychology", "sociology",
	}
	refineTerms = []string{
		"african american", "latin american", "history", "politics", "indians",
		"jazz", "immigration", "civil rights", "programming", "markets",
	}
)

var small struct {
	once sync.Once
	run  *experiments.Runner
	err  error
}

// smallSite is the Small deployment (a tenth of the paper's), generated
// once per test binary.
func smallSite(t *testing.T) *experiments.Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("generates the Small deployment")
	}
	small.once.Do(func() { small.run, small.err = experiments.NewRunner(datagen.Small()) })
	if small.err != nil {
		t.Fatal(small.err)
	}
	return small.run
}

// cloudCase is one Compute call.
type cloudCase struct {
	name string
	ids  []int64
	opts cloud.Options
}

// smallCases are the product's clouds at Small scale — every search and
// every refinement of it, as the site computes them — plus random result
// prefixes under random options.
func smallCases(t *testing.T, r *experiments.Runner) (*textindex.Index, []cloudCase) {
	ix, err := r.Site.SearchIndex()
	if err != nil {
		t.Fatal(err)
	}
	var cases []cloudCase
	rng := rand.New(rand.NewSource(30))
	for _, q := range searchTerms {
		res, err := r.Site.SearchCourses(q)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, cloudCase{q, res.IDs(), cloud.Options{MaxTerms: 30, Exclude: res.Query.Terms()}})
		for _, term := range refineTerms {
			ref, err := r.Site.RefineSearch(res, term)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, cloudCase{q + " → " + term, ref.IDs(), cloud.Options{MaxTerms: 30, Exclude: ref.Query.Terms()}})
		}
		ids := res.IDs()
		if len(ids) == 0 {
			continue
		}
		exclude := append(res.Query.Terms(), "history of modern science", "Latin American", "zzzabsent")
		for i := 0; i < 2; i++ {
			cases = append(cases, cloudCase{
				name: fmt.Sprintf("%s prefix %d", q, i),
				ids:  ids[:1+rng.Intn(len(ids))],
				opts: cloud.Options{MaxTerms: rng.Intn(60), MinDocs: rng.Intn(5), Exclude: exclude[:rng.Intn(len(exclude)+1)]},
			})
		}
	}
	return ix.Text(), cases
}

// randomCorpus mixes the quick-check corpora's shapes: theme words in
// varying bigram contexts, numbers, a non-Latin word and mixed tokens.
func randomCorpus(rng *rand.Rand) (*textindex.Index, []int64) {
	words := []string{"latin", "american", "african", "politics", "history", "indians",
		"2008", "2009", "cs106", "λόγος", "логика", "theme", "alpha", "beta", "winter", "quarter"}
	ix := textindex.MustNew(textindex.Field{Name: "title", Weight: 3}, textindex.Field{Name: "body", Weight: 1})
	n := 5 + rng.Intn(60)
	ids := make([]int64, n)
	for i := range ids {
		field := func() string {
			toks := make([]string, rng.Intn(8))
			for j := range toks {
				toks[j] = words[rng.Intn(len(words))]
			}
			return strings.Join(toks, " ")
		}
		ids[i] = int64(i + 1)
		if err := ix.Add(ids[i], []string{field(), field()}); err != nil {
			panic(err)
		}
	}
	ix.Finish()
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	return ix, ids[:rng.Intn(n+1)]
}

// TestCloudMatchesReference: the id kernel answers exactly what the
// string kernel it replaced answered, on the Small deployment's product
// clouds and on the small corpora.
func TestCloudMatchesReference(t *testing.T) {
	check := func(ix *textindex.Index, c cloudCase) {
		t.Helper()
		got, want := cloud.Compute(ix, c.ids, c.opts), referenceCompute(ix, c.ids, c.opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %+v:\n got  %+v\n want %+v", c.name, c.opts, got, want)
		}
	}

	ix, results := corpus(t)
	for _, opts := range []cloud.Options{{}, {Exclude: []string{"american"}}, {MaxTerms: 5, MinDocs: 1, Exclude: []string{"American", "African American"}}} {
		check(ix, cloudCase{"corpus", results, opts})
	}
	for n := 5; n < 35; n++ {
		ix, ids := boundedCorpus(n)
		check(ix, cloudCase{"bounded", ids, cloud.Options{MinDocs: 1}})
		check(ix, cloudCase{"bounded half", ids[:n/2], cloud.Options{MinDocs: 1}})
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, ids := randomCorpus(rng)
		opts := cloud.Options{MaxTerms: rng.Intn(20), MinDocs: rng.Intn(4)}
		for _, e := range []string{"american", "Latin American", "theme alpha beta", "2008", "zzzabsent"} {
			if rng.Intn(2) == 0 {
				opts.Exclude = append(opts.Exclude, e)
			}
		}
		got, want := cloud.Compute(ix, ids, opts), referenceCompute(ix, ids, opts)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d %+v:\n got  %+v\n want %+v", seed, opts, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	sx, cases := smallCases(t, smallSite(t))
	nonEmpty := 0
	for _, c := range cases {
		check(sx, c)
		if len(cloud.Compute(sx, c.ids, c.opts).Terms) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(cases)/3 { // many refinements find no course
		t.Errorf("only %d of %d Small clouds have terms; the oracle checks too little", nonEmpty, len(cases))
	}
	t.Logf("%d Small clouds, %d non-empty", len(cases), nonEmpty)
}

// TestCloudConcurrentPool: eight goroutines computing different clouds
// on one index, each many times, get their sequential answers — a slot
// some call failed to reset would leak into another's counts.
func TestCloudConcurrentPool(t *testing.T) {
	ix, cases := smallCases(t, smallSite(t))
	cases = cases[:8*(len(cases)/8)]
	want := make([]*cloud.Cloud, len(cases))
	for i, c := range cases {
		want[i] = cloud.Compute(ix, c.ids, c.opts)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := g; i < len(cases); i += 8 {
					if got := cloud.Compute(ix, cases[i].ids, cases[i].opts); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d, %s: concurrent cloud differs from its sequential one", g, cases[i].name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloudPoolGrows alternates between a small and a larger index, so a
// pooled scratch sized for one serves the other and must grow.
func TestCloudPoolGrows(t *testing.T) {
	smallIx, smallIDs := corpus(t)
	bigIx := textindex.MustNew(textindex.Field{Name: "text", Weight: 1})
	var bigIDs []int64
	for i := 0; i < 400; i++ {
		text := fmt.Sprintf("theme w%d w%d seminar w%d", i, i%37, i%11)
		if err := bigIx.Add(int64(i+1), []string{text}); err != nil {
			t.Fatal(err)
		}
		bigIDs = append(bigIDs, int64(i+1))
	}
	bigIx.Finish()
	if bigIx.VocabSize() <= smallIx.VocabSize() {
		t.Fatalf("vocabularies %d and %d: the second must be larger", smallIx.VocabSize(), bigIx.VocabSize())
	}
	opts := cloud.Options{Exclude: []string{"american"}}
	for round := 0; round < 4; round++ {
		for _, c := range []struct {
			ix  *textindex.Index
			ids []int64
		}{{smallIx, smallIDs}, {bigIx, bigIDs}, {smallIx, smallIDs[:7]}, {bigIx, bigIDs[100:]}} {
			if got, want := cloud.Compute(c.ix, c.ids, opts), referenceCompute(c.ix, c.ids, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, vocabulary %d: got %s, want %s", round, c.ix.VocabSize(), got, want)
			}
		}
	}
}
