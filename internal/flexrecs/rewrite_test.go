package flexrecs

import (
	"reflect"
	"strings"
	"testing"

	"courserank/internal/matview"
	"courserank/internal/relation"
)

// tree renders a workflow on one line, operands in parentheses, so a
// test can say what shape the rewriter produced.
func tree(s *Step) string {
	if s == nil {
		return ""
	}
	out := s.describe(nil)
	if s.child != nil {
		out += "(" + tree(s.child)
		if s.other != nil {
			out += ", " + tree(s.other)
		}
		out += ")"
	}
	return out
}

// rewritingEngine is an engine with a registry — the only kind that
// rewrites — beside a plain one over the same database.
func rewritingEngine(t *testing.T) (rw, plain *Engine) {
	t.Helper()
	db := paperDB(t)
	plain = NewEngine(db)
	rw = NewEngineOver(plain.SQL())
	rw.UseMatviews(matview.NewRegistry(db))
	return rw, plain
}

// figure5b is the collaborative-filtering workflow exactly as the paper
// draws it: both sides of the neighbour ▷ select BELOW their extend.
func figure5b(student int64, year any) *Step {
	ratings := Rel("Comments").Project("SuID", "CourseID", "Rating")
	similar := Recommend(
		ratings.Select("SuID <> ?", student).Extend("SuID", "CourseID", "Rating", "Ratings"),
		ratings.Select("SuID = ?", student).Extend("SuID", "CourseID", "Rating", "Ratings"),
		InvEuclideanOn("Ratings"),
	).Top(2)
	courses := Rel("Courses")
	if year != nil {
		courses = courses.Select("Year = ?", year)
	}
	return Recommend(courses, similar, WeightedAvg("CourseID", "Ratings", "Score")).Top(3)
}

const nestedRatings = "matview[ratings-extend](ε[SuID: CourseID→Rating as Ratings](π{SuID,CourseID,Rating}(Comments)))"

func TestRewriteHoistsGroupSelectsAndMaterializes(t *testing.T) {
	rw, _ := rewritingEngine(t)
	got := tree(rw.rewrite(figure5b(444, nil)))
	want := "top[3](▷[Identify[CourseID,Ratings], W_Avg[Score] as Score](" +
		"matview[courses-operand](Courses), " +
		"top[2](▷[inv_Euclidean[Ratings] as Score](" +
		"σ[SuID <> ?](" + nestedRatings + "), " +
		"σ[SuID = ?](" + nestedRatings + ")))))"
	if got != want {
		t.Fatalf("rewritten Figure 5b:\n got %s\nwant %s", got, want)
	}

	// A parameterized target is not materialized; the nesting still is.
	got = tree(rw.rewrite(figure5b(444, 2008)))
	if !strings.Contains(got, "W_Avg[Score] as Score](σ[Year = ?](Courses), top[2]") ||
		strings.Count(got, nestedRatings) != 2 {
		t.Fatalf("year-scoped Figure 5b:\n%s", got)
	}

	// Several group selections move together and keep their nesting
	// order; a literal condition moves like a bound one.
	multi := Rel("Comments").Select("SuID <> ?", int64(1)).Project("SuID", "CourseID", "Rating").
		Select("SuID > 400").Extend("SuID", "CourseID", "Rating", "Ratings")
	got = tree(rw.rewrite(multi))
	if want := "σ[SuID > 400](σ[SuID <> ?](" + nestedRatings + "))"; got != want {
		t.Fatalf("two group selections:\n got %s\nwant %s", got, want)
	}

	// The input tree is never edited.
	wf := figure5b(444, nil)
	before := tree(wf)
	rw.rewrite(wf)
	if tree(wf) != before {
		t.Fatalf("rewrite modified its input:\n%s", tree(wf))
	}
}

func TestRewriteRefusesUnsafeHoists(t *testing.T) {
	rw, _ := rewritingEngine(t)
	ratings := Rel("Comments").Project("SuID", "CourseID", "Rating")
	for name, wf := range map[string]*Step{
		"qualified reference":       ratings.Select("Comments.SuID <> ?", int64(444)).Extend("SuID", "CourseID", "Rating", "Ratings"),
		"condition on a non-group":  ratings.Select("CourseID <> ?", int64(1)).Extend("SuID", "CourseID", "Rating", "Ratings"),
		"group and non-group mixed": ratings.Select("SuID <> ? AND Rating > 2", int64(444)).Extend("SuID", "CourseID", "Rating", "Ratings"),
		"another ? stays below":     ratings.Select("SuID <> ?", int64(444)).Select("Rating >= ?", 3.0).Extend("SuID", "CourseID", "Rating", "Ratings"),
		"join under the extend": Rel("Comments").JoinOn(Rel("Courses"), "Comments.CourseID = Courses.CourseID").
			Select("SuID <> ?", int64(444)).Extend("SuID", "Title", "Rating", "Ratings"),
		"vector named like the group": ratings.Select("SuID <> ?", int64(444)).Extend("SuID", "CourseID", "Rating", "suid"),
		"unparsable condition":        ratings.Select("SuID <> <> ?", int64(444)).Extend("SuID", "CourseID", "Rating", "Ratings"),
	} {
		if got := rw.rewrite(wf); got != wf {
			t.Errorf("%s: rewriter moved something:\n got %s\nfrom %s", name, tree(got), tree(wf))
		}
	}

	// A tree that compiles to one statement holds nothing to rewrite.
	sql := ratedCourses(444)
	if got := rw.rewrite(sql); got != sql {
		t.Errorf("sqlable tree was rewritten: %s", tree(got))
	}
}

// ratedCourses is the relational body of the rated-courses strategy: one
// statement, sort included.
func ratedCourses(student int64) *Step {
	return Rel("Comments").Select("Comments.SuID = ?", student).
		JoinOn(Rel("Courses"), "Comments.CourseID = Courses.CourseID").
		Project("Courses.CourseID", "Title", "Rating").OrderBy("Rating", true)
}

// TestRewritePushesTopIntoSQL is rule (d) case by case: a top over a
// statement becomes that statement's LIMIT ?, and nothing else does.
func TestRewritePushesTopIntoSQL(t *testing.T) {
	rw, plain := rewritingEngine(t)

	// Through an outermost order, k bound behind the WHERE arguments.
	got := rw.rewrite(ratedCourses(444).Top(5))
	if got.kind != limitStep || !sqlable(got) {
		t.Fatalf("top over order over SQL: %s", tree(got))
	}
	sql, args, err := CompileSQL(got)
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT Courses.CourseID, Title, Rating FROM Comments JOIN Courses ON Comments.CourseID = Courses.CourseID" +
		" WHERE Comments.SuID = ? ORDER BY Rating DESC LIMIT ?"; sql != want {
		t.Errorf("compiled\n got %s\nwant %s", sql, want)
	}
	if !reflect.DeepEqual(args, []any{int64(444), int64(5)}) {
		t.Errorf("args = %#v, want the student then k", args)
	}
	if out := rw.Explain(ratedCourses(444).Top(5)); !strings.Contains(out, "ORDER BY Rating DESC LIMIT ?  -- args [444 5]") {
		t.Errorf("Explain does not show the limited statement:\n%s", out)
	}

	// With no order at all.
	unordered := Rel("Comments").Select("Rating >= ?", 4.0).Project("SuID", "CourseID")
	if got := rw.rewrite(unordered.Top(2)); got.kind != limitStep || got.child != unordered {
		t.Errorf("top over unordered SQL: %s", tree(got))
	}
	// Below a non-SQL operator, as an operand that binds a parameter.
	under := Recommend(Rel("Courses"), unordered.Top(2), JaccardOn("Title"))
	if got := tree(rw.rewrite(under)); !strings.Contains(got, ", limit[2](π{SuID,CourseID}(σ[Rating >= ?](Comments))))") {
		t.Errorf("top under ▷: %s", got)
	}

	// Refused: the fused top(▷), a top over a non-SQL child, and anything
	// in or under a view — one already in the tree or rule (b)'s.
	nest := Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings")
	explicit := unordered.Top(2).materialize("mine")
	for name, wf := range map[string]*Step{
		"top(▷)":                figure5b(444, 2008),
		"top over extend":       nest.Select("SuID <> ?", int64(444)).Top(2),
		"in a view":             explicit,
		"over a view":           explicit.Top(1),
		"in rule (b)'s operand": Recommend(Rel("Courses").Select("Year = ?", int64(2008)), Rel("Comments").Top(2), JaccardOn("Text")),
	} {
		var walk func(*Step) bool
		walk = func(s *Step) bool {
			return s != nil && (s.kind == limitStep || walk(s.child) || walk(s.other))
		}
		if got := rw.rewrite(wf); walk(got) {
			t.Errorf("%s: pushed a LIMIT: %s", name, tree(got))
		}
	}
	// σ over a pushed top stays a step-wise selection of the k rows: a
	// LIMIT closes its statement.
	over := unordered.Top(3).Select("SuID > ?", int64(445))
	if got := rw.rewrite(over); sqlable(got) || got.child.kind != limitStep {
		t.Errorf("σ over top: %s", tree(got))
	}

	// Identity without a registry.
	for _, e := range []*Engine{plain, plain.ForceScan(), rw.ForceScan()} {
		if wf := ratedCourses(444).Top(5); e.rewrite(wf) != wf {
			t.Error("an engine without a registry pushed a top")
		}
	}
}

// TestRewriteTopParityAndOneShape runs limited statements beside the
// drained-then-truncated plain engine for every k, and pins that k is an
// argument: a new k costs no compile.
func TestRewriteTopParityAndOneShape(t *testing.T) {
	rw, plain := rewritingEngine(t)
	for _, body := range []func() *Step{
		func() *Step { return ratedCourses(445) },
		func() *Step { return ratedCourses(999) }, // no rows
		func() *Step { return Rel("Comments").Select("Rating >= ?", 2.0).Project("SuID", "CourseID", "Rating") },
		func() *Step {
			return Rel("Comments").Select("Rating >= ?", 4.0).OrderBy("Rating", true).Select("SuID > 0")
		}, // order not outermost: step-wise
	} {
		for _, k := range []int{1, 2, 3, 100} {
			want, err := plain.Run(body().Top(k))
			if err != nil {
				t.Fatal(err)
			}
			got, err := rw.Run(body().Top(k))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s top[%d]\n got %v\nwant %v", tree(body()), k, got.Rows, want.Rows)
			}
		}
	}

	_, m0 := rw.CompileStats()
	for _, k := range []int{10, 20, 10} {
		if _, err := rw.Run(ratedCourses(446).Top(k)); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := rw.CompileStats()
	if m1 != m0 {
		t.Errorf("k = 10 then k = 20 compiled %d new shapes, want 0 (the shape was compiled above)", m1-m0)
	}
	// The limited and the unlimited statement never share a slot.
	if _, err := rw.Run(ratedCourses(446)); err != nil {
		t.Fatal(err)
	}
	if h2, m2 := rw.CompileStats(); m2 != m1+1 || h2 != h1 {
		t.Errorf("unlimited twin: compile hits %d→%d misses %d→%d, want one miss", h1, h2, m1, m2)
	}
	fresh, _ := rewritingEngine(t)
	for _, k := range []int{10, 20} {
		if _, err := fresh.Run(ratedCourses(446).Top(k)); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := fresh.CompileStats(); h != 1 || m != 1 {
		t.Errorf("k = 10 then k = 20 on a fresh engine: %d hits %d misses, want 1 and 1", h, m)
	}
}

func TestRewriteLeavesExplicitMaterializeAlone(t *testing.T) {
	rw, _ := rewritingEngine(t)
	if wf := deptPopular("CS"); rw.rewrite(wf) != wf {
		t.Errorf("explicit view was rewritten: %s", tree(rw.rewrite(wf)))
	}
	// Nothing moves inside a view already in the tree, nothing wraps it,
	// and no ancestor of it is materialized either: views never nest.
	mine := Rel("Comments").Project("SuID", "CourseID", "Rating").Select("SuID <> 444").
		Extend("SuID", "CourseID", "Rating", "Ratings").
		materialize("mine")
	wf := Recommend(Rel("Courses").Select("DepID = ?", "CS"), mine.Top(2), AvgOf("CourseID", "Ratings"))
	if got := rw.rewrite(wf); got != wf {
		t.Errorf("tree around an explicit view was rewritten: %s", tree(got))
	}
}

func TestRewriteMaterializesMaximalSubtrees(t *testing.T) {
	rw, _ := rewritingEngine(t)
	nest := func() *Step {
		return Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings")
	}
	// A parameter-free operand holding an extend is ONE view, placed at
	// the operand; a parameter-free extend under a non-operand is its own.
	got := tree(rw.rewrite(Recommend(Rel("Courses").Select("DepID = ?", "CS"), nest().Top(2), AvgOf("CourseID", "Ratings"))))
	if !strings.Contains(got, "matview[comments-operand](top[2](ε[") || strings.Count(got, "matview[") != 1 {
		t.Errorf("operand over an extend: %s", got)
	}
	if got := tree(rw.rewrite(nest().Top(2))); got != "top[2]("+nestedRatings+")" {
		t.Errorf("extend under top: %s", got)
	}
	// Both operands of a blend are whole operands too.
	blend := Blend(
		Recommend(Rel("Courses"), Rel("Courses").Select("Title = 'American History'"), JaccardOn("Title")),
		Recommend(Rel("Courses"), nest(), AvgOf("CourseID", "Ratings")),
		"CourseID", "Score", 1, 1)
	if got := tree(rw.rewrite(blend)); !strings.HasPrefix(got, "blend[") ||
		!strings.Contains(got, "L + 1·R on CourseID](matview[courses-operand](▷[") ||
		!strings.Contains(got, ", matview[comments+courses-operand](▷[") || strings.Count(got, "matview[") != 2 {
		t.Errorf("blend operands: %s", got)
	}
}

func TestRewriteIdentityWithoutRegistry(t *testing.T) {
	_, plain := rewritingEngine(t)
	wf := figure5b(444, nil)
	if plain.rewrite(wf) != wf {
		t.Fatal("an engine without a registry rewrote the tree")
	}
	if forced := plain.ForceScan(); forced.rewrite(wf) != wf {
		t.Fatal("a ForceScan handle rewrote the tree")
	}
	rw, _ := rewritingEngine(t)
	if forced := rw.ForceScan(); forced.rewrite(wf) != wf {
		t.Fatal("a rewriting engine's ForceScan handle rewrote the tree")
	}
}

// TestRewriteParity runs hand-built trees on the rewriting engine and on
// the plain one, before and after DML that includes the order-sensitive
// case: one student rating one course twice, where ε's last-row-wins
// decides the vector.
func TestRewriteParity(t *testing.T) {
	rw, plain := rewritingEngine(t)
	workflows := func() map[string]*Step {
		out := map[string]*Step{}
		for _, st := range []int64{444, 445, 446, 447, 448 /* no comments */, 999 /* unknown */} {
			out["5b/"+relation.Format(st)] = figure5b(st, nil)
			out["5b-year/"+relation.Format(st)] = figure5b(st, 2008)
			out["vectors/"+relation.Format(st)] = Rel("Comments").Select("SuID <> ?", st).Select("SuID > 400").
				Extend("SuID", "CourseID", "Rating", "Ratings")
		}
		out["dept"] = Recommend(Rel("Courses").Select("DepID = ?", "CS"),
			Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings"),
			AvgOf("CourseID", "Ratings")).Top(3)
		out["order-over-view"] = Recommend(Rel("Courses"), Rel("Courses").Select("Title = 'American History'"),
			JaccardOn("Title")).OrderBy("Title", false)
		return out
	}
	check := func(phase string) {
		t.Helper()
		for name, wf := range workflows() {
			want, err := plain.Run(wf)
			if err != nil {
				t.Fatalf("%s %s: plain: %v", phase, name, err)
			}
			for pass := 0; pass < 2; pass++ { // cold, then off the warm views
				got, err := rw.Run(wf)
				if err != nil {
					t.Fatalf("%s %s: rewritten: %v", phase, name, err)
				}
				if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s %s: rewritten run differs\n got %v\nwant %v", phase, name, got.Rows, want.Rows)
				}
			}
		}
	}
	db := plain.SQL().DB()
	db.MustTable("Students").MustInsert(relation.Row{448, "Silent", "2011", 3.0})
	check("seed")
	addComments(db,
		relation.Row{444, 3, 2008, "Spr", "first take", 1, "d"},
		relation.Row{444, 3, 2008, "Spr", "second take", 5, "d"}, // same student, same course
		relation.Row{447, 1, 2008, "Aut", "late", 2, "d"},
		relation.Row{445, 4, 2008, "Aut", "unrated", nil, "d"},
	)
	if _, err := db.MustTable("Comments").DeleteWhere(func(r relation.Row) bool {
		return r[0] == int64(446) && r[1] == int64(2) // SuID 446, CourseID 2
	}); err != nil {
		t.Fatal(err)
	}
	check("after DML")
}

// TestRewriteSharesOneViewAndRunsNoSQL pins what the two rules buy: warm,
// Figure 5b for ANY student executes no statement at all, reads the one
// ratings view from both sides of the neighbour ▷, and registers nothing.
func TestRewriteSharesOneViewAndRunsNoSQL(t *testing.T) {
	rw, _ := rewritingEngine(t)
	if _, err := rw.Run(figure5b(444, nil)); err != nil {
		t.Fatal(err)
	}
	views := len(rw.Matviews().Views())
	if views != 2 { // the ratings nesting and the whole-catalog operand
		t.Fatalf("cold run registered %d views, want 2", views)
	}
	h0, m0 := rw.MatStats()
	ch0, cm0 := rw.CompileStats()
	for _, st := range []int64{444, 445, 446, 447, 999} {
		if _, err := rw.Run(figure5b(st, nil)); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := rw.MatStats()
	ch1, cm1 := rw.CompileStats()
	if m1 != m0 || h1 != h0+5*3 {
		t.Errorf("warm runs: matview hits %d→%d misses %d→%d, want +15 hits and no miss", h0, h1, m0, m1)
	}
	if ch1 != ch0 || cm1 != cm0 {
		t.Errorf("warm runs compiled or executed SQL: compile hits %d→%d misses %d→%d", ch0, ch1, cm0, cm1)
	}
	if n := len(rw.Matviews().Views()); n != views {
		t.Errorf("warm runs registered views: %d → %d", views, n)
	}
}

// TestRewriteSharedSnapshotReadOnly pins the sharing rule the skipped
// serve copy rests on: a consumer that only reads gets the snapshot
// itself — same rows, same Vectors — and leaves it untouched, while
// in-place consumers and the caller of Run get a private copy.
func TestRewriteSharedSnapshotReadOnly(t *testing.T) {
	rw, _ := rewritingEngine(t)
	nest := func() *Step {
		return Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings")
	}
	first, err := rw.Run(nest())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]any, len(first.Rows))
	for i, r := range first.Rows {
		snapshot[i] = []any{r[0], r[1].(Vector).Clone()}
	}
	// The caller's copy is its own: scrambling it must not reach the view.
	first.Rows[0], first.Rows[1] = first.Rows[1], first.Rows[0]
	first.Rows = first.Rows[:1]

	for _, st := range []int64{444, 445, 446} {
		if _, err := rw.Run(figure5b(st, nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := rw.Run(nest().OrderBy("SuID", true).Top(2)); err != nil {
			t.Fatal(err)
		}
	}
	again, err := rw.Run(nest())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Rows, snapshot) {
		t.Fatalf("shared snapshot changed under its readers:\n got %v\nwant %v", again.Rows, snapshot)
	}
	for _, v := range rw.Matviews().Views() {
		if st := v.Stats(); st.Refreshes != 1 {
			t.Errorf("view %s was built %d times, want the one cold build", st.Name, st.Refreshes)
		}
	}
}
