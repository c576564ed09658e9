package flexrecs

import (
	"reflect"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// paperDB recreates the schema and a small instance of the paper's §3.2
// example relations:
//
//	Courses(CourseID,DepID,Title,Description,Units,Url)
//	Students(SuID,Name,Class,GPA)
//	Comments(SuID,CourseID,Year,Term,Text,Rating,Date)
func paperDB(t *testing.T) *relation.DB {
	t.Helper()
	db := relation.NewDB()
	courses := db.MustCreate(relation.MustTable("Courses", relation.NewSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.Col("DepID", relation.TypeString),
		relation.Col("Title", relation.TypeString),
		relation.Col("Description", relation.TypeString),
		relation.Col("Units", relation.TypeInt),
		relation.Col("Year", relation.TypeInt),
	), relation.WithPrimaryKey("CourseID")))
	students := db.MustCreate(relation.MustTable("Students", relation.NewSchema(
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.Col("Name", relation.TypeString),
		relation.Col("Class", relation.TypeString),
		relation.Col("GPA", relation.TypeFloat),
	), relation.WithPrimaryKey("SuID")))
	db.MustCreate(relation.MustTable("Comments", relation.NewSchema(
		relation.Col("SuID", relation.TypeInt),
		relation.Col("CourseID", relation.TypeInt),
		relation.Col("Year", relation.TypeInt),
		relation.Col("Term", relation.TypeString),
		relation.Col("Text", relation.TypeString),
		relation.Col("Rating", relation.TypeFloat),
		relation.Col("Date", relation.TypeString),
	)))
	for _, r := range []relation.Row{
		{1, "CS", "Introduction to Programming", "java basics", 5, 2008},
		{2, "CS", "Introduction to Programming Methodology", "more java", 5, 2008},
		{3, "CS", "Advanced Programming", "c++ and beyond", 4, 2008},
		{4, "HIST", "American History", "survey", 3, 2008},
		{5, "CS", "Introduction to Programming", "old offering", 5, 2007},
	} {
		courses.MustInsert(r)
	}
	for _, r := range []relation.Row{
		{444, "Sally", "2009", 3.8}, {445, "Twin", "2009", 3.7}, {446, "Anti", "2010", 3.1}, {447, "Stranger", "2010", 3.0},
	} {
		students.MustInsert(r)
	}
	// Student 444 rates courses 1:5, 2:4, 4:2.
	// Student 445 rates nearly identically → most similar.
	// Student 446 rates oppositely → dissimilar.
	// Student 447 shares no courses → incomparable.
	addComments(db,
		relation.Row{444, 1, 2008, "Aut", "great", 5, "d"},
		relation.Row{444, 2, 2008, "Win", "good", 4, "d"},
		relation.Row{444, 4, 2008, "Spr", "meh", 2, "d"},
		relation.Row{445, 1, 2008, "Aut", "great", 5, "d"},
		relation.Row{445, 2, 2008, "Win", "good", 4, "d"},
		relation.Row{445, 3, 2008, "Spr", "superb", 5, "d"},
		relation.Row{446, 1, 2008, "Aut", "awful", 1, "d"},
		relation.Row{446, 2, 2008, "Win", "bad", 1, "d"},
		relation.Row{446, 3, 2008, "Spr", "nope", 2, "d"},
		relation.Row{447, 3, 2008, "Aut", "fine", 4, "d"},
	)
	return db
}

// addComments inserts (SuID, CourseID, Year, Term, Text, Rating, Date)
// rows into paperDB's Comments — writes go through relation, since SQL
// is read-only.
func addComments(db *relation.DB, rows ...relation.Row) {
	comments := db.MustTable("Comments")
	for _, r := range rows {
		comments.MustInsert(r)
	}
}

// TestFigure5aRelatedCourses runs the exact workflow of Figure 5(a):
// rank 2008 courses by title Jaccard against "Introduction to
// Programming".
func TestFigure5aRelatedCourses(t *testing.T) {
	e := NewEngine(paperDB(t))
	wf := Recommend(
		Rel("Courses").Select("Year = 2008"),
		Rel("Courses").Select("Title = ?", "Introduction to Programming"),
		JaccardOn("Title"),
	)
	res, err := e.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("target rows = %d, want 4 (the 2008 courses)", res.Len())
	}
	ti, si := res.MustCol("Title"), res.MustCol("Score")
	// Best: the identical title (course 1). Then "Introduction to
	// Programming Methodology" (2/3), then "Advanced Programming" (1/3),
	// then "American History" (0).
	wantOrder := []string{
		"Introduction to Programming",
		"Introduction to Programming Methodology",
		"Advanced Programming",
		"American History",
	}
	for i, want := range wantOrder {
		if res.Rows[i][ti] != want {
			t.Errorf("rank %d = %v, want %s (scores: %v)", i, res.Rows[i][ti], want, res.Rows[i][si])
		}
	}
	if s := res.Rows[0][si].(float64); s != 1.0 {
		t.Errorf("top score = %v, want 1", s)
	}
	if s := res.Rows[3][si].(float64); s != 0.0 {
		t.Errorf("bottom score = %v, want 0", s)
	}
}

// TestFigure5bCollaborative runs the two-recommend workflow of Figure
// 5(b): find students similar to 444 by inverse Euclidean distance over
// rating vectors, then rank 2008 courses by the similarity-weighted
// average of those students' ratings.
func TestFigure5bCollaborative(t *testing.T) {
	e := NewEngine(paperDB(t))
	ratings := Rel("Comments").Project("SuID", "CourseID", "Rating")
	similar := Recommend(
		ratings.Select("SuID <> 444").Extend("SuID", "CourseID", "Rating", "Ratings"),
		ratings.Select("SuID = 444").Extend("SuID", "CourseID", "Rating", "Ratings"),
		InvEuclideanOn("Ratings"),
	)
	courses := Recommend(
		Rel("Courses").Select("Year = 2008"),
		similar.Top(2),
		WeightedAvg("CourseID", "Ratings", "Score"),
	)
	res, err := e.Run(courses)
	if err != nil {
		t.Fatal(err)
	}

	// First check the similar-students stage directly.
	simRes, err := e.Run(similar)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Len() != 3 {
		t.Fatalf("similar students = %d, want 3", simRes.Len())
	}
	su, sc := simRes.MustCol("SuID"), simRes.MustCol("Score")
	if simRes.Rows[0][su] != int64(445) {
		t.Errorf("most similar student = %v, want 445", simRes.Rows[0][su])
	}
	if simRes.Rows[0][sc].(float64) != 1.0 {
		t.Errorf("twin similarity = %v, want 1 (identical common ratings)", simRes.Rows[0][sc])
	}
	// Student 447 has no common course with 444 → similarity 0, ranked last.
	if simRes.Rows[2][su] != int64(447) {
		t.Errorf("least similar = %v, want 447", simRes.Rows[2][su])
	}

	// Then the final course ranking: course 1 (rated 5 by the twin and 1
	// by the dissimilar student) must beat course 4 (unrated by
	// neighbors).
	ci, si := res.MustCol("CourseID"), res.MustCol("Score")
	scores := map[int64]float64{}
	for i := range res.Rows {
		scores[res.Rows[i][ci].(int64)] = res.Rows[i][si].(float64)
	}
	if !(scores[1] > scores[4]) {
		t.Errorf("course 1 (%v) should beat course 4 (%v)", scores[1], scores[4])
	}
	if !(scores[3] > 0) {
		t.Errorf("course 3 rated by neighbors should score > 0, got %v", scores[3])
	}
	// The twin (weight 1.0) rated course 1 a 5; the dissimilar student's
	// weight is small, so the weighted average stays near 5.
	if scores[1] < 4.0 {
		t.Errorf("course 1 weighted score = %v, want near 5", scores[1])
	}
}

func TestCompileSQL(t *testing.T) {
	wf := Rel("Courses").Select("Year = 2008").Select("DepID = 'CS'").Project("CourseID", "Title")
	sql, args, err := CompileSQL(wf)
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT CourseID, Title FROM Courses WHERE Year = 2008 AND DepID = 'CS'"
	if sql != want {
		t.Errorf("sql = %q, want %q", sql, want)
	}
	if len(args) != 0 {
		t.Errorf("args = %v", args)
	}
}

func TestCompileSQLJoinAndArgs(t *testing.T) {
	wf := Rel("Comments m").
		JoinOn(Rel("Students s"), "m.SuID = s.SuID").
		Select("m.Rating >= ?", 4).
		Project("s.Name", "m.Rating")
	sql, args, err := CompileSQL(wf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "FROM Comments m JOIN Students s ON m.SuID = s.SuID") {
		t.Errorf("sql = %q", sql)
	}
	if len(args) != 1 || args[0] != 4 {
		t.Errorf("args = %v", args)
	}
	// And it actually executes.
	e := NewEngine(paperDB(t))
	res, err := e.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 6 {
		t.Errorf("rows = %d, want 6", res.Len())
	}
}

func TestExplainShowsSQLAndOperators(t *testing.T) {
	e := NewEngine(paperDB(t))
	wf := Recommend(
		Rel("Courses").Select("Year = 2008"),
		Rel("Courses").Select("Title = 'Introduction to Programming'"),
		JaccardOn("Title"),
	).Top(3)
	plan := e.Explain(wf)
	for _, want := range []string{"top[3]", "▷[Jaccard[Title] as Score]", "SQL> SELECT * FROM Courses WHERE Year = 2008"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExtendSemantics(t *testing.T) {
	e := NewEngine(paperDB(t))
	res, err := e.Run(Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("students with ratings = %d, want 4", res.Len())
	}
	si, vi := res.MustCol("SuID"), res.MustCol("Ratings")
	byStudent := map[int64]Vector{}
	for _, r := range res.Rows {
		byStudent[r[si].(int64)] = r[vi].(Vector)
	}
	v444 := byStudent[444]
	if len(v444) != 3 || v444[int64(1)] != 5 || v444[int64(4)] != 2 {
		t.Errorf("444 vector = %v", v444)
	}
}

func TestPostExtendSelect(t *testing.T) {
	// A select above extend cannot compile to SQL; it runs as a residual
	// filter over the materialized relation.
	e := NewEngine(paperDB(t))
	wf := Rel("Comments").Project("SuID", "CourseID", "Rating").
		Extend("SuID", "CourseID", "Rating", "Ratings").
		Select("SuID > 445")
	res, err := e.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestProjectAfterRecommend(t *testing.T) {
	e := NewEngine(paperDB(t))
	wf := Recommend(
		Rel("Courses").Select("Year = 2008"),
		Rel("Courses").Select("CourseID = 1"),
		JaccardOn("Title"),
	).Project("Title", "Score").Top(2)
	res, err := e.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Cols[0] != "Title" {
		t.Errorf("cols = %v", res.Cols)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestOrderByStep(t *testing.T) {
	e := NewEngine(paperDB(t))
	wf := Recommend(
		Rel("Courses").Select("Year = 2008"),
		Rel("Courses").Select("CourseID = 1"),
		JaccardOn("Title"),
	).OrderBy("Title", false)
	res, err := e.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	ti := res.MustCol("Title")
	if res.Rows[0][ti] != "Advanced Programming" {
		t.Errorf("order by title: %v", res.Rows[0][ti])
	}
}

// TestOrderByCompilesOnlyOutermost pins where an OrderBy step is
// allowed into the compiled SQL: the outermost position, where the
// planner can see — and possibly elide — it. An order underneath a
// join has step semantics SQL's single ORDER BY cannot express (sort
// the operand, then join), so those trees must stay off the compiled
// path rather than silently dropping the sort.
func TestOrderByCompilesOnlyOutermost(t *testing.T) {
	outer := Rel("Courses").Select("DepID = 'CS'").OrderBy("Title", true)
	if !sqlable(outer) {
		t.Fatal("outermost OrderBy over a sqlable subtree should compile")
	}
	sql, _, err := CompileSQL(outer)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "ORDER BY Title DESC") {
		t.Fatalf("compiled SQL lost the order: %s", sql)
	}
	for _, wf := range []*Step{
		Rel("Comments").JoinOn(Rel("Courses").OrderBy("Title", false), "Comments.CourseID = Courses.CourseID"),
		Rel("Comments").OrderBy("Rating", true).JoinOn(Rel("Courses"), "Comments.CourseID = Courses.CourseID"),
		Rel("Courses").OrderBy("Title", false).OrderBy("Units", true),
	} {
		if sqlable(wf) {
			t.Errorf("non-outermost OrderBy must not be SQL-compilable: %s", wf.describe())
		}
	}
	// A refused tree still executes step-wise with both sorts applied:
	// the inner ORDER BY Title compiles into the subtree's SQL, the
	// outer Units sort runs externally and, being stable, keeps the
	// title order within equal units.
	e := NewEngine(paperDB(t))
	res, err := e.Run(Rel("Courses").OrderBy("Title", false).OrderBy("Units", true))
	if err != nil {
		t.Fatal(err)
	}
	ci := res.MustCol("CourseID")
	var got []int64
	for _, row := range res.Rows {
		got = append(got, row[ci].(int64))
	}
	if want := []int64{1, 5, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("nested orders = %v, want %v", got, want)
	}
}

func TestJoinOverMaterialized(t *testing.T) {
	// Join where the left side has been extended — forces the residual
	// (non-SQL) join path.
	e := NewEngine(paperDB(t))
	wf := Rel("Comments").Project("SuID", "CourseID", "Rating").
		Extend("SuID", "CourseID", "Rating", "Ratings").
		JoinOn(Rel("Students").Project("SuID", "Name").Select("GPA > 3.5"), "Name <> ''")
	_, err := e.Run(wf)
	// The ON references Name (right side); the combined relation has two
	// SuID columns, but the condition doesn't touch them so this works.
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	e := NewEngine(paperDB(t))
	bad := []*Step{
		Rel(""),
		Rel("Courses").Select(""),
		Rel("Courses").Project(),
		Rel("Courses").Top(0),
		Rel("Courses").OrderBy("", false),
		Recommend(Rel("Courses"), Rel("Courses"), nil),
		Rel("Courses").JoinOn(Rel("Students"), ""),
	}
	for i, w := range bad {
		if _, err := e.Run(w); err == nil {
			t.Errorf("workflow %d should fail validation", i)
		}
	}
	if _, err := e.Run(Rel("NoSuchTable")); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := e.Run(Rel("Courses").Select("NoCol = 3")); err == nil {
		t.Error("bad column should fail")
	}
	// Recommend attribute errors.
	if _, err := e.Run(Recommend(Rel("Courses"), Rel("Courses"), JaccardOn("Nope"))); err == nil {
		t.Error("missing comparator attribute should fail")
	}
	if _, err := e.Run(Recommend(Rel("Courses"), Rel("Courses"), InvEuclideanOn("Title"))); err == nil {
		t.Error("non-vector attribute should fail")
	}
	// Score column collision.
	wf := Recommend(
		Recommend(Rel("Courses"), Rel("Courses"), JaccardOn("Title")),
		Rel("Courses"),
		JaccardOn("Title"),
	)
	if _, err := e.Run(wf); err == nil {
		t.Error("duplicate Score column should fail")
	}
	// As() renames and fixes the collision.
	wf2 := Recommend(
		Recommend(Rel("Courses"), Rel("Courses"), JaccardOn("Title")).As("Inner"),
		Rel("Courses"),
		JaccardOn("Title"),
	)
	if _, err := e.Run(wf2); err != nil {
		t.Errorf("renamed score should work: %v", err)
	}
}

func TestAsPanicsOffRecommend(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("As on non-recommend should panic")
		}
	}()
	Rel("Courses").As("X")
}

func TestRegistry(t *testing.T) {
	e := NewEngine(paperDB(t))
	reg := NewRegistry()
	tpl := Template{
		Name:        "related-courses",
		Description: "Courses with similar titles",
		Params:      []string{"title", "year"},
		Build: func(p map[string]any) (*Step, error) {
			return Recommend(
				Rel("Courses").Select("Year = ?", p["year"]),
				Rel("Courses").Select("Title = ?", p["title"]),
				JaccardOn("Title"),
			).Top(3), nil
		},
	}
	if err := reg.Register(tpl); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(tpl); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := reg.Register(Template{Name: ""}); err == nil {
		t.Error("unnamed template should fail")
	}
	if err := reg.Register(Template{Name: "nobuild"}); err == nil {
		t.Error("template without Build should fail")
	}
	res, err := reg.Run(e, "related-courses", map[string]any{"title": "Introduction to Programming", "year": 2008})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("rows = %d", res.Len())
	}
	if _, err := reg.Run(e, "nope", nil); err == nil {
		t.Error("unknown strategy should fail")
	}
	if got := reg.List(); len(got) != 1 || got[0].Name != "related-courses" {
		t.Errorf("List = %v", got)
	}
	if _, ok := reg.Get("related-courses"); !ok {
		t.Error("Get failed")
	}
}

func TestRelationHelpers(t *testing.T) {
	r := &Relation{Cols: []string{"A", "B"}, Rows: [][]any{{int64(1), Vector{int64(2): 3}}}}
	if _, ok := r.Col("a"); !ok {
		t.Error("Col should be case-insensitive")
	}
	if _, ok := r.Col("z"); ok {
		t.Error("missing column")
	}
	ss := r.Strings(0)
	if ss[0] != "1" || !strings.Contains(ss[1], "vector") {
		t.Errorf("Strings = %v", ss)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCol should panic")
		}
	}()
	r.MustCol("z")
}

// TestCompileMemoization pins the workflow-shape cache: two builds of
// the same template shape — fresh Step trees, different argument values
// — compile SQL exactly once, and the memoized prepared statement
// returns exactly what per-request compilation did.
func TestCompileMemoization(t *testing.T) {
	e := NewEngine(paperDB(t))
	build := func(title string) *Step {
		return Rel("Courses").Select("Year = 2008").Select("Title = ?", title).Project("CourseID", "Title")
	}
	first, err := e.Run(build("Introduction to Programming"))
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 1 || first.Rows[0][0] != int64(1) {
		t.Fatalf("first run rows: %v", first.Rows)
	}
	hits0, misses0 := e.CompileStats()
	if misses0 == 0 {
		t.Fatal("first run should compile")
	}
	// Same shape, different argument: pure compile-cache hit, correct rows.
	second, err := e.Run(build("American History"))
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Rows) != 1 || second.Rows[0][0] != int64(4) {
		t.Fatalf("second run rows: %v", second.Rows)
	}
	hits1, misses1 := e.CompileStats()
	if misses1 != misses0 {
		t.Fatalf("same shape recompiled: misses %d → %d", misses0, misses1)
	}
	if hits1 <= hits0 {
		t.Fatalf("expected a compile-cache hit: hits %d → %d", hits0, hits1)
	}
	// A different shape misses once, then hits.
	if _, err := e.Run(Rel("Courses").Select("Units >= ?", 4)); err != nil {
		t.Fatal(err)
	}
	_, misses2 := e.CompileStats()
	if misses2 != misses1+1 {
		t.Fatalf("new shape should compile once: misses %d → %d", misses1, misses2)
	}
	if _, err := e.Run(Rel("Courses").Select("Units >= ?", 3)); err != nil {
		t.Fatal(err)
	}
	if _, misses3 := e.CompileStats(); misses3 != misses2 {
		t.Fatalf("repeated new shape recompiled: misses %d → %d", misses2, misses3)
	}
}
