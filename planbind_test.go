package courserank

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"courserank/internal/comments"
	"courserank/internal/datagen"
	"courserank/internal/experiments"
	"courserank/internal/flexrecs"
	"courserank/internal/relation"
)

// tinySite builds a Tiny-scale site of its own, on n shards (0 = mono).
func tinySite(t *testing.T, shards int) *experiments.Runner {
	t.Helper()
	r, err := experiments.NewRunner(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if shards > 0 {
		if err := r.Site.EnableSharding(shards); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// sortedRows renders rows in a canonical order, for comparing results
// whose order no ORDER BY pins.
func sortedRows[R ~[]any](rows []R) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", []any(r))
	}
	sort.Strings(out)
	return out
}

// TestPlaceholdersBindInTextOrder: a compiled workflow statement binds
// each σ's arguments, and a limit's k, in the order its placeholders
// appear in its text — two in one σ; σs on both sides of a join and one
// above it; a limit over them — on the mono site's engine, a 2-shard
// site's and a registry-less one. Each answers what the same statement
// answers through site.SQL, and Explain shows the arguments in that
// order.
func TestPlaceholdersBindInTextOrder(t *testing.T) {
	mono, sharded := parityRunner(t), tinySite(t, 2)
	s := mono.Site
	first, err := s.SQL.Query("SELECT CourseID, Year FROM Comments WHERE Rating >= ? ORDER BY CommentID LIMIT ?", 1.0, int64(1))
	if err != nil || len(first.Rows) != 1 {
		t.Fatalf("no rated comment: %v", err)
	}
	course, ok := s.Catalog.Course(first.Rows[0][0].(int64))
	if !ok {
		t.Fatal("the comment's course is not in the catalog")
	}
	dep, units, year := course.DepID, course.Units, first.Rows[0][1].(int64)

	const join = "SELECT Comments.CommentID, Courses.Title FROM Comments JOIN Courses ON Comments.CourseID = Courses.CourseID" +
		" WHERE Courses.DepID = ? AND Courses.Units = ? AND Comments.Rating >= ? AND Comments.Year <= ? ORDER BY Comments.CommentID"
	joined := func() *flexrecs.Step {
		return flexrecs.Rel("Comments").Select("Comments.Rating >= ?", 1.0).
			JoinOn(flexrecs.Rel("Courses").Select("Courses.DepID = ? AND Courses.Units = ?", dep, units), "Comments.CourseID = Courses.CourseID").
			Select("Comments.Year <= ?", year).
			Project("Comments.CommentID", "Courses.Title").
			OrderBy("Comments.CommentID", false)
	}
	cases := []struct {
		name string
		sql  string
		args []any
		w    func() *flexrecs.Step
	}{
		{"two placeholders in one σ", "SELECT * FROM Courses WHERE DepID = ? AND Units = ?", []any{dep, units},
			func() *flexrecs.Step { return flexrecs.Rel("Courses").Select("DepID = ? AND Units = ?", dep, units) }},
		{"σs around a join", join, []any{dep, units, 1.0, year}, joined},
		{"limit over the join", join + " LIMIT ?", []any{dep, units, 1.0, year, int64(1)},
			func() *flexrecs.Step { return joined().Top(1) }},
	}
	engines := []struct {
		name string
		e    *flexrecs.Engine
	}{
		{"mono", s.Flex},
		{"2shard", sharded.Site.Flex},
		{"registry-less", flexrecs.NewEngineOver(s.SQL)},
		{"registry-less 2shard", flexrecs.NewEngineWithBackend(sharded.Site.SQL, clusterBackend{sharded.Site.Sharded})},
	}
	for _, c := range cases {
		want, err := s.SQL.Query(c.sql, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: the statement returns no rows, so it shows nothing", c.name)
		}
		for _, en := range engines {
			w := c.w()
			got, err := en.e.Run(w)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, en.name, err)
			}
			if !slices.Equal(sortedRows(got.Rows), sortedRows(want.Rows)) {
				t.Errorf("%s on %s: %d rows %v, site.SQL returns %d rows %v", c.name, en.name, len(got.Rows), got.Rows, len(want.Rows), want.Rows)
			}
		}
		// The rewriting engine runs the limit as the statement itself.
		if out := s.Flex.Explain(c.w()); !strings.Contains(out, fmt.Sprintf("SQL> %s  -- args %v", c.sql, c.args)) {
			t.Errorf("%s: Explain does not show %q with args %v:\n%s", c.name, c.sql, c.args, out)
		}
	}
}

// templateDraws lists one parameter draw of every registered template.
func templateDraws(t *testing.T, r *experiments.Runner) map[string]map[string]any {
	t.Helper()
	intro, ok := r.Site.Catalog.Course(r.Man.Planted["intro-programming"])
	if !ok {
		t.Fatal("no intro-programming course")
	}
	st := r.Man.SampleStudent
	draws := map[string]map[string]any{
		"related-courses":      {"title": intro.Title, "k": 10},
		"rated-courses":        {"student": st, "k": 10},
		"top-rated":            {"min": 4.0, "k": 10},
		"contemporary-courses": {"course": intro.ID, "band": int64(1), "k": 10},
		"cf-courses":           {"student": st, "k": 10},
		"grade-peers":          {"student": st, "k": 10, "neighbors": int64(5)},
		"department-popular":   {"dep": intro.DepID, "k": 10},
		"hybrid":               {"student": st, "title": intro.Title, "k": 10},
	}
	for _, tpl := range r.Site.Strategies.List() {
		if draws[tpl.Name] == nil {
			t.Fatalf("template %s has no draw", tpl.Name)
		}
	}
	return draws
}

// TestCompileStatsOnceWarm: flexrecs.compile_hit_ratio counts what it
// says. Once every template has run, a comment has patched the ratings
// nesting and a catalogue change has rebuilt the whole-catalogue operand,
// every later run — and every later patch and rebuild — reuses its
// statements: compile hits rise and misses stay put, on the mono and the
// 2-shard site.
func TestCompileStatsOnceWarm(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := tinySite(t, shards)
			s := r.Site
			draws := templateDraws(t, r)
			intro, _ := s.Catalog.Course(r.Man.Planted["intro-programming"])
			runAll := func() {
				t.Helper()
				for name, params := range draws {
					if _, err := s.Strategies.Run(s.Flex, name, params); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
			comment := func() {
				t.Helper()
				if _, err := s.Comments.Add(comments.Comment{SuID: r.Man.SampleStudent, CourseID: intro.ID, Year: 2008, Term: "Aut", Text: "again", Rating: 4}); err != nil {
					t.Fatal(err)
				}
			}
			recatalogue := func(text string) {
				t.Helper()
				if err := s.DB.MustTable("Courses").UpdateByKey([]relation.Value{intro.ID}, func(row relation.Row) relation.Row {
					row = slices.Clone(row)
					row[4] = text // Description
					return row
				}); err != nil {
					t.Fatal(err)
				}
			}
			viewStats := func(prefix string) (refreshes, patches uint64) {
				for _, v := range s.Views.Views() {
					if strings.HasPrefix(v.Name(), prefix) {
						st := v.Stats()
						refreshes, patches = refreshes+st.Refreshes, patches+st.Patches
					}
				}
				return refreshes, patches
			}

			runAll()
			comment()
			recatalogue("first edit")
			runAll()
			h0, m0 := s.Flex.CompileStats()
			_, patched0 := viewStats("flex/ratings-extend@")
			rebuilt0, _ := viewStats("flex/courses-operand@")

			runAll()
			h1, m1 := s.Flex.CompileStats()
			if m1 != m0 || h1 <= h0 {
				t.Errorf("warm runs: compile hits %d→%d misses %d→%d, want more hits and no miss", h0, h1, m0, m1)
			}
			comment()
			runAll()
			if _, patched := viewStats("flex/ratings-extend@"); patched <= patched0 {
				t.Errorf("a comment did not patch the ratings nesting: patches %d→%d", patched0, patched)
			}
			recatalogue("second edit")
			runAll()
			if rebuilt, _ := viewStats("flex/courses-operand@"); rebuilt <= rebuilt0 {
				t.Errorf("a catalogue change did not rebuild the catalogue operand: refreshes %d→%d", rebuilt0, rebuilt)
			}
			if h2, m2 := s.Flex.CompileStats(); m2 != m1 || h2 <= h1 {
				t.Errorf("a patch and a rebuild: compile hits %d→%d misses %d→%d, want more hits and no miss", h1, h2, m1, m2)
			}
		})
	}
}
