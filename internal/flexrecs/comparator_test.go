package flexrecs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// TestComparatorLabels pins the Explain annotations to the paper's
// notation.
func TestComparatorLabels(t *testing.T) {
	cases := []struct {
		c    Comparator
		want string
	}{
		{JaccardOn("Title"), "Jaccard[Title]"},
		{InvEuclideanOn("Ratings"), "inv_Euclidean[Ratings]"},
		{CosineOn("Ratings"), "Cosine[Ratings]"},
		{PearsonOn("Ratings"), "Pearson[Ratings]"},
		{OverlapOn("Ratings"), "Overlap[Ratings]"},
		{WeightedAvg("CourseID", "Ratings", "Score"), "Identify[CourseID,Ratings], W_Avg[Score]"},
		{AvgOf("CourseID", "Ratings"), "Identify[CourseID,Ratings], Avg"},
	}
	for _, c := range cases {
		if got := c.c.Label(); got != c.want {
			t.Errorf("Label = %q, want %q", got, c.want)
		}
	}
}

func TestVectorComparatorsInWorkflows(t *testing.T) {
	e := NewEngine(paperDB(t))
	ratings := Rel("Comments").Project("SuID", "CourseID", "Rating")
	for _, cmp := range []Comparator{CosineOn("Ratings"), PearsonOn("Ratings"), OverlapOn("Ratings")} {
		wf := Recommend(
			ratings.Select("SuID <> 444").Extend("SuID", "CourseID", "Rating", "Ratings"),
			ratings.Select("SuID = 444").Extend("SuID", "CourseID", "Rating", "Ratings"),
			cmp,
		)
		res, err := e.Run(wf)
		if err != nil {
			t.Fatalf("%s: %v", cmp.Label(), err)
		}
		if res.Len() != 3 {
			t.Fatalf("%s: rows = %d", cmp.Label(), res.Len())
		}
		si := res.MustCol("Score")
		// Scores descend.
		for i := 1; i < res.Len(); i++ {
			if res.Rows[i][si].(float64) > res.Rows[i-1][si].(float64) {
				t.Errorf("%s: scores not sorted", cmp.Label())
			}
		}
		// The twin (445) rates like 444; the anti-twin (446) opposes.
		// Under every similarity, 445 must not rank below 446.
		su := res.MustCol("SuID")
		pos := map[int64]int{}
		for i := range res.Rows {
			pos[res.Rows[i][su].(int64)] = i
		}
		if pos[445] > pos[446] {
			t.Errorf("%s: twin ranked below anti-twin: %v", cmp.Label(), pos)
		}
	}
}

func TestAvgOfComparator(t *testing.T) {
	e := NewEngine(paperDB(t))
	wf := Recommend(
		Rel("Courses").Select("Year = 2008"),
		Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings"),
		AvgOf("CourseID", "Ratings"),
	)
	res, err := e.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	ci, si := res.MustCol("CourseID"), res.MustCol("Score")
	scores := map[int64]float64{}
	for i := range res.Rows {
		scores[res.Rows[i][ci].(int64)] = res.Rows[i][si].(float64)
	}
	// Course 1 ratings: 5, 5, 1 → mean 11/3.
	if got := scores[1]; got < 3.66 || got > 3.67 {
		t.Errorf("course 1 avg = %v", got)
	}
	// Course 4 rated only by 444 (2) → mean 2.
	if scores[4] != 2 {
		t.Errorf("course 4 avg = %v", scores[4])
	}
}

// TestWeightedAvgMatchesReference: AvgOf and WeightedAvg walk the
// reference vectors per target key and score every target row bit for
// bit as the fold over every reference key did — over random targets
// (repeated and NULL keys, in table order) and references (overlapping
// vectors, zero, negative and NULL weights).
func TestWeightedAvgMatchesReference(t *testing.T) {
	for seed := range int64(400) {
		rng := rand.New(rand.NewSource(seed))
		target := &Relation{Cols: []string{"CourseID", "Title"}}
		for range rng.Intn(12) {
			var key any = int64(rng.Intn(15))
			if rng.Intn(10) == 0 {
				key = nil
			}
			target.Rows = append(target.Rows, []any{key, "t"})
		}
		ref := &Relation{Cols: []string{"SuID", "Ratings", "Score"}}
		for i := range rng.Intn(8) {
			m := mapVector{}
			for range rng.Intn(6) {
				m[int64(rng.Intn(15))] = []float64{1, 2.5, 3.7, 4, 5, 0.1}[rng.Intn(6)]
			}
			vec := m.vector()
			var w any = []float64{0.3, 1, 0.1, 0, -1, 0.7}[rng.Intn(6)]
			if rng.Intn(10) == 0 {
				w = nil
			}
			ref.Rows = append(ref.Rows, []any{int64(i), vec, w})
		}
		for _, c := range []*wavgCmp{AvgOf("CourseID", "Ratings").(*wavgCmp), WeightedAvg("courseid", "Ratings", "Score").(*wavgCmp)} {
			got, err := c.bind(target, ref)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refWavgBind(c, target, ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range target.Rows {
				g, err := got(row)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want(row)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d %s key %v: score %v, reference %v", seed, c.Label(), row[0], g, w)
				}
			}
		}
	}
}

// refWavgBind is AvgOf/WeightedAvg's bind as it was, kept verbatim: one
// map keyed by every key of every reference vector.
func refWavgBind(c *wavgCmp, target, ref *Relation) (func([]any) (float64, error), error) {
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
	// every reference vector per target row.
	type agg struct{ num, den float64 }
	table := map[relation.Value]agg{}
	for _, r := range ref.Rows {
		vec, err := attrVector(r, vi)
		if err != nil {
			return nil, err
		}
		w := 1.0
		if wi >= 0 {
			if w, err = toWeight(r[wi]); err != nil {
				return nil, err
			}
		}
		if w <= 0 {
			continue
		}
		for k, v := range mapOf(vec) {
			a := table[k]
			a.num += w * v
			a.den += w
			table[k] = a
		}
	}
	return func(trow []any) (float64, error) {
		key, err := relation.Normalize(trow[ki])
		if err != nil {
			return 0, err
		}
		a := table[key]
		if a.den == 0 {
			return 0, nil
		}
		return a.num / a.den, nil
	}, nil
}

func TestExplainResidualOperators(t *testing.T) {
	e := NewEngine(paperDB(t))
	wf := Rel("Comments").Project("SuID", "CourseID", "Rating").
		Extend("SuID", "CourseID", "Rating", "Ratings").
		Select("SuID > 444").
		Top(3)
	plan := e.Explain(wf)
	for _, want := range []string{"top[3]", "σ[SuID > 444]", "ε[SuID: CourseID→Rating as Ratings]", "SQL> SELECT SuID, CourseID, Rating FROM Comments"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestBlendOperator(t *testing.T) {
	e := NewEngine(paperDB(t))
	// Left: content similarity to course 1's title over all courses.
	content := Recommend(
		Rel("Courses"),
		Rel("Courses").Select("CourseID = 1"),
		JaccardOn("Title"),
	).Project("CourseID", "Title", "Score")
	// Right: average rating per course (scaled down to [0,1]).
	cf := Recommend(
		Rel("Courses").Select("Year = 2008"),
		Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings"),
		AvgOf("CourseID", "Ratings"),
	).Project("CourseID", "Score")
	wf := Blend(content, cf, "CourseID", "Score", 1.0, 0.2)
	res, err := e.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	ci, si := res.MustCol("CourseID"), res.MustCol("Score")
	scores := map[int64]float64{}
	for i := range res.Rows {
		scores[res.Rows[i][ci].(int64)] = res.Rows[i][si].(float64)
		if i > 0 && res.Rows[i][si].(float64) > res.Rows[i-1][si].(float64) {
			t.Error("blend output must sort by blended score")
		}
	}
	// Course 1: Jaccard 1.0 + 0.2·avg(5,5,1)=0.2·11/3 ≈ 1.733.
	if got := scores[1]; got < 1.72 || got > 1.75 {
		t.Errorf("course 1 blended = %v", got)
	}
	// Course 4 ("American History"): Jaccard 0 + 0.2·2 = 0.4.
	if got := scores[4]; got < 0.39 || got > 0.41 {
		t.Errorf("course 4 blended = %v", got)
	}
	// Course 5 exists only on the left (2007 → absent from right): its
	// blended score is pure content.
	if got, ok := scores[5]; !ok || got < 0.99 {
		t.Errorf("left-only course 5 = %v, %v", got, ok)
	}
	// Validation and error paths.
	if _, err := e.Run(Blend(content, cf, "", "Score", 1, 1)); err == nil {
		t.Error("missing key should fail validation")
	}
	if _, err := e.Run(Blend(content, cf, "Nope", "Score", 1, 1)); err == nil {
		t.Error("unknown key column should fail")
	}
	if _, err := e.Run(Blend(content.Project("CourseID", "Title"), cf, "CourseID", "Score", 1, 1)); err == nil {
		t.Error("missing score column should fail")
	}
	// Explain shows the blend node.
	plan := e.Explain(wf)
	if !strings.Contains(plan, "blend[Score: 1·L + 0.2·R on CourseID]") {
		t.Errorf("plan = %s", plan)
	}
}

func TestExtendSkipsNullsAndBadTypes(t *testing.T) {
	e := NewEngine(paperDB(t))
	// paperDB has no NULL-rated comment; add one.
	addComments(e.SQL().DB(), relation.Row{500, 1, 2008, "Aut", "x", nil, "d"})
	res, err := e.Run(Rel("Comments").Select("SuID = 500").Project("SuID", "CourseID", "Rating").
		Extend("SuID", "CourseID", "Rating", "Ratings"))
	if err != nil {
		t.Fatal(err)
	}
	// The only row has a NULL rating → no vector entries → no group row
	// (the student has nothing comparable).
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
	// Extending over a non-numeric value column errors.
	if _, err := e.Run(Rel("Comments").Project("SuID", "CourseID", "Text").
		Extend("SuID", "CourseID", "Text", "Texts")); err == nil {
		t.Error("non-numeric extend value should fail")
	}
}
