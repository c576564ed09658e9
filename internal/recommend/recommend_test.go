package recommend

import (
	"testing"

	"courserank/internal/flexrecs"
	"courserank/internal/relation"
)

// paperDB mirrors the FlexRecs test fixture so the hard-coded engines
// can be cross-checked against the declarative workflows.
func paperDB(t *testing.T) *relation.DB {
	t.Helper()
	db := relation.NewDB()
	courses := db.MustCreate(relation.MustTable("Courses", relation.NewSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.Col("DepID", relation.TypeString),
		relation.Col("Title", relation.TypeString),
		relation.Col("Units", relation.TypeInt),
		relation.Col("Year", relation.TypeInt),
	), relation.WithPrimaryKey("CourseID")))
	comments := db.MustCreate(relation.MustTable("Comments", relation.NewSchema(
		relation.Col("SuID", relation.TypeInt),
		relation.Col("CourseID", relation.TypeInt),
		relation.Col("Year", relation.TypeInt),
		relation.Col("Term", relation.TypeString),
		relation.Col("Text", relation.TypeString),
		relation.Col("Rating", relation.TypeFloat),
		relation.Col("Date", relation.TypeString),
	)))
	for _, r := range []relation.Row{
		{1, "CS", "Introduction to Programming", 5, 2008},
		{2, "CS", "Introduction to Programming Methodology", 5, 2008},
		{3, "CS", "Advanced Programming", 4, 2008},
		{4, "HIST", "American History", 3, 2008},
	} {
		courses.MustInsert(r)
	}
	for _, r := range []relation.Row{
		{444, 1, 2008, "Aut", "great", 5, "d"},
		{444, 2, 2008, "Win", "good", 4, "d"},
		{444, 4, 2008, "Spr", "meh", 2, "d"},
		{445, 1, 2008, "Aut", "great", 5, "d"},
		{445, 2, 2008, "Win", "good", 4, "d"},
		{445, 3, 2008, "Spr", "superb", 5, "d"},
		{446, 1, 2008, "Aut", "awful", 1, "d"},
		{446, 2, 2008, "Win", "bad", 1, "d"},
		{446, 3, 2008, "Spr", "nope", 2, "d"},
		{447, 3, 2008, "Aut", "fine", 4, "d"},
		{448, 9, 2008, "Aut", nil, nil, "d"},
	} {
		comments.MustInsert(r)
	}
	return db
}

// TestCrossCheckUserUserCFAgainstFlexRecs verifies the A1 ablation
// premise: the hard-coded CF and the Figure 5(b) workflow agree.
func TestCrossCheckUserUserCFAgainstFlexRecs(t *testing.T) {
	db := paperDB(t)
	hard := New(db).UserUserCF(444, 2, 0, false)

	fe := flexrecs.NewEngine(db)
	ratings := flexrecs.Rel("Comments").Project("SuID", "CourseID", "Rating")
	similar := flexrecs.Recommend(
		ratings.Select("SuID <> 444").Extend("SuID", "CourseID", "Rating", "Ratings"),
		ratings.Select("SuID = 444").Extend("SuID", "CourseID", "Rating", "Ratings"),
		flexrecs.InvEuclideanOn("Ratings"),
	)
	wf := flexrecs.Recommend(
		flexrecs.Rel("Courses").Select("Year = 2008"),
		similar.Top(2),
		flexrecs.WeightedAvg("CourseID", "Ratings", "Score"),
	)
	res, err := fe.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	ci, si := res.MustCol("CourseID"), res.MustCol("Score")
	flexScores := map[int64]float64{}
	for _, r := range res.Rows {
		flexScores[r[ci].(int64)] = r[si].(float64)
	}
	for _, h := range hard {
		fs, ok := flexScores[h.ID]
		if !ok {
			continue // flex targets only 2008 catalog courses
		}
		if diff := fs - h.Score; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("course %d: hardcoded %v vs flexrecs %v", h.ID, h.Score, fs)
		}
	}
	if len(hard) == 0 {
		t.Fatal("hardcoded CF returned nothing")
	}
}

func TestUserUserCFExcludeRated(t *testing.T) {
	e := New(paperDB(t))
	all := e.UserUserCF(444, 2, 0, false)
	excl := e.UserUserCF(444, 2, 0, true)
	if len(excl) >= len(all) {
		t.Errorf("excludeRated should shrink results: %d vs %d", len(excl), len(all))
	}
	for _, s := range excl {
		if s.ID == 1 || s.ID == 2 || s.ID == 4 {
			t.Errorf("already-rated course %d recommended", s.ID)
		}
	}
}

func TestPopularity(t *testing.T) {
	e := New(paperDB(t))
	top := e.Popularity(2, 0)
	// Course 1 ratings: 5,5,1 → 11/3. Course 2: 4,4,1 → 3. Course 3:
	// 5,2,4 → 11/3. Course 4 has one rating (min 2 filters it).
	for _, s := range top {
		if s.ID == 4 {
			t.Error("min raters filter failed")
		}
	}
	if len(top) != 3 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].ID != 1 { // ties broken by id: course 1 before 3
		t.Errorf("top = %+v", top)
	}
	if got := e.Popularity(2, 1); len(got) != 1 {
		t.Error("limit")
	}
}

func TestEmptyDB(t *testing.T) {
	e := New(relation.NewDB())
	if e.Popularity(1, 0) != nil || e.UserUserCF(1, 2, 0, false) != nil {
		t.Error("missing tables should yield nil results")
	}
}
