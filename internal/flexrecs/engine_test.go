package flexrecs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"courserank/internal/matview"
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
	at1, _ := v444.At(int64(1))
	at4, _ := v444.At(int64(4))
	if len(v444) != 3 || at1 != 5 || at4 != 2 {
		t.Errorf("444 vector = %v", v444)
	}
}

// TestExtendNaNGroup pins ε's NaN rule: every NaN group key falls in one
// group carrying all its values; each used to open a group of its own,
// and the groups came out empty.
func TestExtendNaNGroup(t *testing.T) {
	nan := math.NaN()
	child := &Relation{Cols: []string{"G", "K", "V"}, Rows: [][]any{
		{nan, int64(1), 2.0}, {0.5, int64(1), 3.0}, {nan, int64(2), 4.0},
	}}
	out, err := extend(child, "G", "K", "V", "Vec")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("ε over two group keys, one of them NaN twice = %v, want 2 groups", out.Rows)
	}
	if g := out.Rows[0][0].(float64); !math.IsNaN(g) {
		t.Errorf("first group key = %v, want NaN (it arrived first and compares equal to 0.5)", g)
	}
	if v := out.Rows[0][1].(Vector); !reflect.DeepEqual(v, mapVector{int64(1): 2.0, int64(2): 4.0}.vector()) {
		t.Errorf("NaN group = %v, want both NaN rows' values", v)
	}
	if g, v := out.Rows[1][0], out.Rows[1][1].(Vector); g != 0.5 || !reflect.DeepEqual(v, mapVector{int64(1): 3.0}.vector()) {
		t.Errorf("second group = %v %v, want 0.5 [{1 3}]", g, v)
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
			t.Errorf("non-outermost OrderBy must not be SQL-compilable: %s", wf.describe(nil))
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
	r := &Relation{Cols: []string{"A", "B"}, Rows: [][]any{{int64(1), mapVector{int64(2): 3}.vector()}}}
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

// The reference for the score-first path: ▷, π and blend as they were
// before they passed scores, kept verbatim — every operator builds all of
// its rows, blend re-keys both operands in maps and sorts them whole, and
// a top cuts the finished relation.

// refRecommend is ▷ as it was: ▷: score every target row against the reference
// set, append the score column, and sort best-first (ties broken by
// original order for determinism).
func refRecommend(target, ref *Relation, cmp Comparator, scoreAs string) (*Relation, error) {
	if _, exists := target.Col(scoreAs); exists {
		return nil, fmt.Errorf("flexrecs: recommend: target already has column %q", scoreAs)
	}
	score, err := cmp.bind(target, ref)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: append(append([]string{}, target.Cols...), scoreAs)}
	out.Rows = make([][]any, len(target.Rows))
	// Carve the output rows from one slab instead of one make per row:
	// recommend runs over whole catalogs, and the per-row slices are the
	// operator's dominant garbage.
	stride := len(target.Cols) + 1
	slab := make([]any, len(target.Rows)*stride)
	for i, row := range target.Rows {
		s, err := score(row)
		if err != nil {
			return nil, err
		}
		var nr []any
		if len(row)+1 == stride {
			nr = slab[:0:stride]
			slab = slab[stride:]
		} else {
			nr = make([]any, 0, len(row)+1)
		}
		nr = append(nr, row...)
		nr = append(nr, s)
		out.Rows[i] = nr
	}
	si := len(out.Cols) - 1
	refSortByScoreDesc(out.Rows, si)
	return out, nil
}

// refProject is π over a materialized child as it was.
func refProject(child *Relation, cols []string) (*Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := child.Col(c)
		if !ok {
			return nil, fmt.Errorf("flexrecs: project: no column %q", c)
		}
		idx[i] = ci
	}
	out := &Relation{Cols: append([]string(nil), cols...), Rows: make([][]any, len(child.Rows))}
	for i, row := range child.Rows {
		nr := make([]any, len(idx))
		for j, ci := range idx {
			nr[j] = row[ci]
		}
		out.Rows[i] = nr
	}
	return out, nil
}

// refSortByScoreDesc stably sorts rows best-first on the float score
// column, without the reflection-based swapper of sort.SliceStable —
// these sorts run over whole catalogs per recommendation.
func refSortByScoreDesc(rows [][]any, si int) {
	slices.SortStableFunc(rows, func(a, b []any) int {
		av, bv := a[si].(float64), b[si].(float64)
		switch {
		case av > bv:
			return -1
		case av < bv:
			return 1
		}
		return 0
	})
}

// refBlend is blend as it was: rows of two scored relations are
// matched on key; output score = wL·scoreL + wR·scoreR with missing
// sides contributing 0. Output rows order by blended score descending.
func refBlend(left, right *Relation, key, scoreCol string, wL, wR float64) (*Relation, error) {
	lk, ok := left.Col(key)
	if !ok {
		return nil, fmt.Errorf("flexrecs: blend: left has no column %q", key)
	}
	ls, ok := left.Col(scoreCol)
	if !ok {
		return nil, fmt.Errorf("flexrecs: blend: left has no column %q", scoreCol)
	}
	rk, ok := right.Col(key)
	if !ok {
		return nil, fmt.Errorf("flexrecs: blend: right has no column %q", key)
	}
	rs, ok := right.Col(scoreCol)
	if !ok {
		return nil, fmt.Errorf("flexrecs: blend: right has no column %q", scoreCol)
	}
	rightScore := map[relation.Value]float64{}
	for _, row := range right.Rows {
		k, err := relation.Normalize(row[rk])
		if err != nil {
			return nil, err
		}
		w, err := toWeight(row[rs])
		if err != nil {
			return nil, err
		}
		rightScore[k] = w
	}
	out := &Relation{Cols: append([]string(nil), left.Cols...)}
	seen := map[relation.Value]bool{}
	for _, row := range left.Rows {
		k, err := relation.Normalize(row[lk])
		if err != nil {
			return nil, err
		}
		seen[k] = true
		lw, err := toWeight(row[ls])
		if err != nil {
			return nil, err
		}
		nr := append([]any(nil), row...)
		nr[ls] = wL*lw + wR*rightScore[k]
		out.Rows = append(out.Rows, nr)
	}
	// Right-only rows: key and blended score, other columns NULL.
	for _, row := range right.Rows {
		k, err := relation.Normalize(row[rk])
		if err != nil {
			return nil, err
		}
		if seen[k] {
			continue
		}
		nr := make([]any, len(out.Cols))
		nr[lk] = k
		nr[ls] = wR * rightScore[k]
		out.Rows = append(out.Rows, nr)
	}
	refSortByScoreDesc(out.Rows, ls)
	return out, nil
}

// refOperands hands the reference's recursion to applyStep for the
// operators the score-first path left alone; nothing fuses.
type refOperands struct {
	fn func(s *Step, private bool) (*Relation, error)
}

func (r refOperands) run(s *Step, private bool) (*Relation, error) { return r.fn(s, private) }
func (r refOperands) fuse(_, _ *Step) (operands, func(int, int))   { return r, func(int, int) {} }

// refRun executes w on e the way the engine did before the score-first
// path: the rewritten tree, with ▷, π, blend and top built by the
// reference operators above and every other step by the engine.
func refRun(e *Engine, w *Step) (*Relation, error) {
	var run func(s *Step, private bool) (*Relation, error)
	run = func(s *Step, private bool) (*Relation, error) {
		if sqlable(s) || s.kind == matStep {
			return e.Run(s)
		}
		switch s.kind {
		case recommendStep:
			target, err := run(s.child, false)
			if err != nil {
				return nil, err
			}
			ref, err := run(s.other, false)
			if err != nil {
				return nil, err
			}
			return refRecommend(target, ref, s.cmp, s.scoreAs)
		case projectStep:
			child, err := run(s.child, false)
			if err != nil {
				return nil, err
			}
			return refProject(child, s.cols)
		case blendStep:
			left, err := run(s.child, false)
			if err != nil {
				return nil, err
			}
			right, err := run(s.other, false)
			if err != nil {
				return nil, err
			}
			return refBlend(left, right, s.blendKey, s.scoreAs, s.wL, s.wR)
		case topStep:
			child, err := run(s.child, true)
			if err != nil {
				return nil, err
			}
			if len(child.Rows) > s.k {
				child.Rows = child.Rows[:s.k]
			}
			return child, nil
		}
		return e.applyStep(s, nil, refOperands{run})
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return run(e.rewrite(w), true)
}

// colScore scores a target row by one of its numeric columns, NULL as 0:
// a comparator whose ties and zeros the test decides.
type colScore struct{ attr string }

func (c colScore) Label() string { return "Col[" + c.attr + "]" }

func (c colScore) bind(target, _ *Relation) (func([]any) (float64, error), error) {
	i, ok := target.Col(c.attr)
	if !ok {
		return nil, fmt.Errorf("flexrecs: target has no attribute %q", c.attr)
	}
	return func(row []any) (float64, error) { return toWeight(row[i]) }, nil
}

// scoreFirstDB holds two random tables T and U of (ID, Grp, F, K, Name,
// Val, Score): Grp repeats and is sometimes NULL, so blend keys collide
// on both sides; F is a float key holding NaN, which matches no key, and
// -0, which matches 0; K holds small whole numbers, an int64 column in
// one table and a float64 one in the other as often as not, where 1 and
// 1.0 must not match; Val and Score take few values, sometimes NULL and
// sometimes all zero, so scores tie.
func scoreFirstDB(rng *rand.Rand) *relation.DB {
	db := relation.NewDB()
	for _, name := range []string{"T", "U"} {
		kType := []relation.Type{relation.TypeInt, relation.TypeFloat}[rng.Intn(2)]
		t := db.MustCreate(relation.MustTable(name, relation.NewSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.Col("Grp", relation.TypeInt),
			relation.Col("F", relation.TypeFloat),
			relation.Col("K", kType),
			relation.Col("Name", relation.TypeString),
			relation.Col("Val", relation.TypeFloat),
			relation.Col("Score", relation.TypeFloat),
		)))
		zeros := rng.Intn(4) == 0
		num := func() any {
			if rng.Intn(6) == 0 {
				return nil
			}
			if zeros {
				return 0.0
			}
			return []float64{0, 0.5, 1, 1, 2, 3.25}[rng.Intn(6)]
		}
		for i := range rng.Intn(13) {
			var grp any = int64(rng.Intn(5))
			if rng.Intn(8) == 0 {
				grp = nil
			}
			f := []float64{0.5, math.NaN(), math.Copysign(0, -1), 0}[rng.Intn(4)]
			var k any = int64(rng.Intn(3))
			if kType == relation.TypeFloat {
				k = []float64{0, 1, 2, math.Copysign(0, -1), math.NaN()}[rng.Intn(5)]
			}
			t.MustInsert(relation.Row{int64(i), grp, f, k, fmt.Sprintf("course n%d", rng.Intn(4)), num(), num()})
		}
	}
	return db
}

// scoreFirstOperand draws a scored operand over table tbl that carries
// the blend key column key: a ▷, a π over one (reordered, names in
// another case, now and then a column that does not exist), or an
// operand the score-first path does not read in place — the table
// itself, a π or σ over it, a top over a ▷. The ▷'s target is a π, σ and
// π over the table, or a σ the ▷ reads in place: one over an ε nesting
// the table by key, or one over another ▷.
func scoreFirstOperand(rng *rand.Rand, tbl, key string) *Step {
	ref := "U"
	if tbl == "U" {
		ref = "T"
	}
	target := Rel(tbl).Project("ID", "Grp", "F", "K", "Name", "Val")
	cmps := []Comparator{colScore{"Val"}, colScore{"val"}, JaccardOn("Name")}
	switch rng.Intn(4) {
	case 0:
		target = Rel(tbl).Select("ID >= ?", int64(rng.Intn(4))).Project("ID", "Grp", "F", "K", "Name", "Val")
	case 1:
		op := []string{"<>", "=", ">="}[rng.Intn(3)]
		target = Rel(tbl).Extend(key, "ID", "Val", "Vec").Select(key+" "+op+" ?", int64(rng.Intn(3)))
		cmps = []Comparator{InvEuclideanOn("Vec"), CosineOn("vec"), OverlapOn("Vec")}
		rec := Recommend(target, Rel(ref).Extend(key, "ID", "Val", "Vec").Select(key+" < ?", int64(2)), cmps[rng.Intn(len(cmps))])
		if rng.Intn(2) == 0 {
			return rec
		}
		return rec.Project("Score", key)
	case 2:
		inner := Recommend(target, Rel(ref).Select("ID < ?", int64(2)), cmps[rng.Intn(len(cmps))]).As("Pre")
		target = inner.Select("Pre >= ?", []float64{0, 0.5, 1}[rng.Intn(3)])
		cmps = append(cmps, colScore{"Pre"})
	}
	rec := Recommend(target, Rel(ref).Select("ID < ?", int64(2)), cmps[rng.Intn(len(cmps))])
	switch rng.Intn(7) {
	case 0, 1:
		return rec
	case 2, 3:
		cols := []string{"Score", strings.ToLower(key)}
		for _, c := range []string{"ID", "name", "VAL"} {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		if rng.Intn(20) == 0 {
			cols = append(cols, "Nope")
		}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		return rec.Project(cols...)
	case 4:
		return Rel(tbl)
	case 5:
		return Rel(tbl).Select("Grp <> ?", int64(rng.Intn(5))).Project("Score", key, "ID")
	}
	return rec.Top(1 + rng.Intn(4))
}

// TestScoreFirstMatchesReference is the score-first path's differential
// oracle: over random operands — duplicate keys on both sides of a
// blend, NaN and -0 keys, keys equal as numbers but int64 on one side
// and float64 on the other, tied, all-zero and NULL scores, π reordering
// or recasing a ▷'s columns, ▷ targets that are a σ over an ε or over
// another ▷ (read in place), operands that are not a ▷ — every workflow,
// under every top k from 1 to two past its row count and under none,
// answers exactly what the materializing reference answers (or fails the
// same way), through Run and RunAnalyze, with and without a matview
// registry.
func TestScoreFirstMatchesReference(t *testing.T) {
	for seed := range int64(300) {
		rng := rand.New(rand.NewSource(seed))
		db := scoreFirstDB(rng)
		views := NewEngine(db)
		views.UseMatviews(matview.NewRegistry(db))
		var w *Step
		key := []string{"Grp", "grp", "GRP", "F", "K", "k"}[rng.Intn(6)]
		switch rng.Intn(4) {
		case 0:
			w = scoreFirstOperand(rng, "T", key)
		default:
			weights := []float64{1, 0.2, 0, -0.5}
			w = Blend(scoreFirstOperand(rng, "T", key), scoreFirstOperand(rng, "U", key), key, "Score",
				weights[rng.Intn(4)], weights[rng.Intn(4)])
		}
		for _, e := range []*Engine{NewEngine(db), views} {
			want, err := refRun(e, w)
			n := 0
			if err == nil {
				n = len(want.Rows)
			}
			for k := 0; k <= n+2; k++ {
				wk := w
				if k > 0 {
					wk = w.Top(k)
				}
				checkScoreFirst(t, fmt.Sprintf("seed %d k %d", seed, k), e, wk)
			}
		}
	}
}

// checkScoreFirst runs w on e through Run, RunAnalyze and the reference.
// Rows compare as reflect.DeepEqual would, except that floats compare bit
// for bit, so NaN equals NaN and -0 differs from 0.
func checkScoreFirst(t *testing.T, what string, e *Engine, w *Step) {
	t.Helper()
	want, wantErr := refRun(e, w)
	got, gotErr := e.Run(w)
	analyzed, _, analyzeErr := e.RunAnalyze(w)
	if wantErr != nil || gotErr != nil || analyzeErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(analyzeErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: errors differ: run %v, analyze %v, reference %v", what, gotErr, analyzeErr, wantErr)
		}
		return
	}
	if !sameBits(got, want) {
		t.Fatalf("%s: %s\n got %v %v\nwant %v %v", what, tree(w), got.Cols, got.Rows, want.Cols, want.Rows)
	}
	if !sameBits(analyzed, want) {
		t.Fatalf("%s: RunAnalyze answers differently\n got %v\nwant %v", what, analyzed.Rows, want.Rows)
	}
}

func sameBits(a, b *Relation) bool {
	if !slices.Equal(a.Cols, b.Cols) || len(a.Rows) != len(b.Rows) || (a.Rows == nil) != (b.Rows == nil) {
		return false
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for j, x := range ra {
			xf, xok := x.(float64)
			yf, yok := rb[j].(float64)
			if xok != yok || xok && math.Float64bits(xf) != math.Float64bits(yf) || !xok && !reflect.DeepEqual(x, rb[j]) {
				return false
			}
		}
	}
	return true
}
