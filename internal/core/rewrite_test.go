package core_test

// The rewriter's differential suite: every registered template, over a
// grid of parameter draws, must return the same columns and the same
// rows in the same order whether FlexRecs runs the tree its rewriter
// chose (Site.Flex) or the tree the template drew — on a monolithic and
// on a sharded site, before and after a write batch.

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"courserank/internal/comments"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/flexrecs"
	"courserank/internal/relation"
	"courserank/internal/shard"
)

// clusterBackend is core's unexported shard backend again, so the
// sharded site can have an unrewritten twin on the same cluster.
type clusterBackend struct{ c *shard.Cluster }

func (b clusterBackend) Prepare(sql string) (flexrecs.PreparedQuery, error) { return b.c.Prepare(sql) }
func (b clusterBackend) Explain(sql string, args ...any) (string, error) {
	return b.c.Explain(sql, args...)
}

// unrewritten returns an engine on the site's own backend and planner
// but without a matview registry — the rewriter is the identity there,
// so it runs every template exactly as drawn.
func unrewritten(s *core.Site) *flexrecs.Engine {
	if s.Sharded != nil {
		return flexrecs.NewEngineWithBackend(s.SQL, clusterBackend{s.Sharded})
	}
	return flexrecs.NewEngineOver(s.SQL)
}

// draw is one personalized request. forced says whether a forced-scan
// engine may also be its oracle; the unrewritten twin always is.
type draw struct {
	strategy string
	params   map[string]any
	forced   bool
}

func ints(t *testing.T, s *core.Site, sql string, args ...any) []int64 {
	t.Helper()
	res, err := s.SQL.Query(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].(int64)
	}
	return out
}

// rewriteStudents picks the students the draws personalize for: the
// manifest's dense rater and its twin, a spread of ordinary students,
// one user with no comments at all, and an id nobody has.
func rewriteStudents(t *testing.T, s *core.Site, man *datagen.Manifest) []int64 {
	t.Helper()
	users := ints(t, s, `SELECT UserID FROM Users ORDER BY UserID`)
	commented := map[int64]bool{}
	for _, id := range ints(t, s, `SELECT SuID FROM Comments GROUP BY SuID`) {
		commented[id] = true
	}
	out := []int64{man.SampleStudent, man.TwinStudent, 9_999_999}
	silent := false
	for i, id := range users {
		switch {
		case id == man.SampleStudent || id == man.TwinStudent:
		case !commented[id] && !silent:
			silent = true
			out = append(out, id)
		case commented[id] && i%9 == 0 && len(out) < 12:
			out = append(out, id)
		}
	}
	if !silent {
		t.Fatal("corpus has no user without comments")
	}
	return out
}

func rewriteDraws(t *testing.T, s *core.Site, man *datagen.Manifest) []draw {
	t.Helper()
	students := rewriteStudents(t, s, man)
	var titles []string
	var courses []int64
	for _, key := range []string{"intro-programming", "programming-methodology", "advanced-programming",
		"programming-abstractions", "operating-systems", "greek-science", "java-programming"} {
		id, ok := man.Planted[key]
		if !ok {
			continue
		}
		c, ok := s.Catalog.Course(id)
		if !ok {
			t.Fatalf("planted course %s missing", key)
		}
		courses = append(courses, id)
		titles = append(titles, c.Title)
	}
	// Forced execution is an oracle only where the planner keeps row
	// order: range scans and band probes emit key order (pinned as
	// multisets by TestRangeAndINLJWorkflowParity and
	// TestSortAwareWorkflows). The three templates that compile to one
	// statement reach the rewriter as trees it returns untouched, and
	// their forced nested-loop joins cost ~80 ms a run, so a few forced
	// draws each are enough there.
	var out []draw
	perTemplate := map[string]int{}
	add := func(strategy string, forced bool, params map[string]any) {
		switch strategy {
		case "rated-courses", "top-rated":
			forced = forced && perTemplate[strategy] < 5
		}
		perTemplate[strategy]++
		out = append(out, draw{strategy, params, forced})
	}
	sizes := [][2]int{{1, 1}, {50, 50}, {10, 20}, {50, 1}, {1, 50}}
	for _, st := range students {
		for _, kn := range sizes {
			add("cf-courses", true, map[string]any{"student": st, "k": kn[0], "neighbors": kn[1]})
			add("cf-courses", true, map[string]any{"student": st, "k": kn[0], "neighbors": kn[1], "year": int64(2008)})
			add("grade-peers", true, map[string]any{"student": st, "k": kn[0], "neighbors": kn[1]})
			add("rated-courses", true, map[string]any{"student": st, "k": kn[0] + kn[1]})
		}
		for _, title := range titles[:2] {
			for _, k := range []int{1, 10, 50} {
				add("hybrid", true, map[string]any{"student": st, "title": title, "k": k})
			}
		}
	}
	for _, d := range s.Catalog.Departments() {
		for _, k := range []int{1, 2, 3, 5, 10, 50} {
			add("department-popular", true, map[string]any{"dep": d.ID, "k": k})
		}
	}
	for _, title := range titles {
		for _, k := range []int{1, 50} {
			add("related-courses", true, map[string]any{"title": title, "k": k})
			for _, y := range []int64{2007, 2008} {
				add("related-courses", true, map[string]any{"title": title, "k": k, "year": y})
				add("related-courses", false, map[string]any{"title": title, "k": k, "since": y})
			}
		}
	}
	for _, min := range []float64{1, 2, 3, 3.5, 4, 4.5, 5} {
		for _, k := range []int{1, 5, 10, 25, 50, 100, 200, 1000} {
			add("top-rated", true, map[string]any{"min": min, "k": k})
		}
	}
	for _, c := range courses {
		for band := 0; band < 4; band++ {
			for _, k := range []int{1, 50} {
				add("contemporary-courses", false, map[string]any{"course": c, "band": band, "k": k})
			}
		}
	}
	// The three templates whose top[k] sits on one SQL statement: the
	// rewriter pushes it down as LIMIT ? and the DBMS stops at k rows, so
	// the pushed-down answer must be the drained-then-truncated one — k
	// of one, a screenful, more than the result holds; a threshold that
	// keeps everything rated, only the long Rating = 5 tie group at the
	// head of the descending walk (which the write batch extends), and
	// nothing.
	for _, k := range []int{1, 10, 50, 1_000_000} {
		for _, min := range []float64{3, 5, 6} {
			add("top-rated", true, map[string]any{"min": min, "k": k})
		}
		for _, st := range students {
			add("rated-courses", true, map[string]any{"student": st, "k": k})
		}
		for _, c := range courses {
			for _, band := range []int{1, 2} {
				add("contemporary-courses", false, map[string]any{"course": c, "band": band, "k": k})
			}
		}
	}
	for _, tpl := range s.Strategies.List() {
		if perTemplate[tpl.Name] < 50 {
			t.Fatalf("template %s has %d draws, want at least 50", tpl.Name, perTemplate[tpl.Name])
		}
	}
	return out
}

// sameRelation is the suite's equality: columns and rows, cell for cell,
// nested rating Vectors included.
func sameRelation(a, b *flexrecs.Relation) bool {
	return reflect.DeepEqual(a.Cols, b.Cols) && reflect.DeepEqual(a.Rows, b.Rows)
}

func checkDraws(t *testing.T, phase string, s *core.Site, draws []draw) {
	t.Helper()
	twin, forced := unrewritten(s), s.Flex.ForceScan()
	for _, d := range draws {
		got, err := s.Strategies.Run(s.Flex, d.strategy, d.params)
		if err != nil {
			t.Fatalf("%s: %s %v: %v", phase, d.strategy, d.params, err)
		}
		want, err := s.Strategies.Run(twin, d.strategy, d.params)
		if err != nil {
			t.Fatalf("%s: unrewritten %s %v: %v", phase, d.strategy, d.params, err)
		}
		if !sameRelation(got, want) {
			t.Fatalf("%s: %s %v: rewritten and unrewritten runs differ\n got %v\nwant %v",
				phase, d.strategy, d.params, got.Rows, want.Rows)
		}
		if !d.forced || s.Sharded != nil {
			// Forced execution reads the unsharded base in storage order;
			// a cluster gathers shard by shard, which reorders rows and
			// with them every positional tie outside ε (whose groups come
			// out in key order) — with or without the rewriter. The twin
			// above shares the cluster and is exact.
			continue
		}
		naive, err := s.Strategies.Run(forced, d.strategy, d.params)
		if err != nil {
			t.Fatalf("%s: forced %s %v: %v", phase, d.strategy, d.params, err)
		}
		if !sameRelation(got, naive) {
			t.Fatalf("%s: %s %v: rewritten and forced-scan runs differ\n got %v\nwant %v",
				phase, d.strategy, d.params, got.Rows, naive.Rows)
		}
	}
}

// writeBatch is the scripted DML between the two phases. It holds the
// order-sensitive case: Comments is keyed by CommentID, so one student
// may rate one course twice, and ε's last-row-wins decides the vector —
// the rewritten nesting must see the rows in the order the unrewritten
// statement does.
func writeBatch(t *testing.T, s *core.Site, man *datagen.Manifest, students []int64) {
	t.Helper()
	add := func(su, course int64, rating float64) {
		if _, err := s.Comments.Add(comments.Comment{
			SuID: su, CourseID: course, Year: 2008, Term: "Winter", Text: "scripted", Rating: rating,
		}); err != nil {
			t.Fatal(err)
		}
	}
	intro, os := man.Planted["intro-programming"], man.Planted["operating-systems"]
	add(man.SampleStudent, intro, 1)
	add(man.SampleStudent, intro, 5) // same student, same course, different rating
	add(man.TwinStudent, intro, 2)
	for i, su := range students {
		if su == 9_999_999 {
			continue
		}
		add(su, os, float64(1+i%5))
		add(su, intro+int64(i), float64(5-i%5))
	}
	// An unrated comment nests nothing; a new grade moves grade-peers.
	if _, err := s.Comments.Add(comments.Comment{
		SuID: man.TwinStudent, CourseID: os, Year: 2008, Term: "Spring", Text: "no rating"}); err != nil {
		t.Fatal(err)
	}
	points := s.DB.MustTable("EnrollmentPoints")
	for i, su := range students[:4] {
		if _, err := points.Insert(relation.Row{su, os, float64(i) + 0.7}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRewriteParityAllTemplates checks the rewriter, not the operators:
// the registry-less twin runs the same applyStep, so ▷, π, blend and the
// fused tops execute the score-first path on both sides, and a fault in
// that path would agree with itself here. flexrecs' own
// TestScoreFirstMatchesReference and TestScoreFirstMatchesReferenceAtSmall
// compare it with the materializing operators it replaced.
func TestRewriteParityAllTemplates(t *testing.T) {
	mono, sharded, man := shardedPair(t)
	for _, site := range []struct {
		name string
		s    *core.Site
	}{{"mono", mono}, {"sharded", sharded}} {
		t.Run(site.name, func(t *testing.T) {
			s := site.s
			draws := rewriteDraws(t, s, man)
			checkDraws(t, "before writes", s, draws)
			writeBatch(t, s, man, rewriteStudents(t, s, man))
			checkDraws(t, "after writes", s, draws)

			// The system chose, the templates did not: the three rating
			// strategies share one nesting, grade-peers has its own, and
			// nothing is keyed by a student.
			var ratings, grades int
			for _, v := range s.Views.Views() {
				name := v.Name()
				if strings.Contains(name, "ratings-extend") {
					ratings++
				}
				if strings.Contains(name, "grades-extend") {
					grades++
				}
				// matKey appends "|<args>" for a view bound to parameters.
				if strings.HasPrefix(name, "flex/") && strings.Contains(name, "|") {
					t.Errorf("view %q is keyed by a parameter binding", name)
				}
			}
			if ratings != 1 || grades != 1 {
				t.Errorf("ratings-extend views = %d, grades-extend views = %d, want one each: %v",
					ratings, grades, viewNamesOf(s))
			}
		})
	}
}

func viewNamesOf(s *core.Site) []string {
	var names []string
	for _, v := range s.Views.Views() {
		names = append(names, v.Name())
	}
	return names
}

// TestRewriteConcurrentReaders: four readers run the strategies that
// share the ratings nesting, each for its own student, while a writer
// adds comments for a second. Shared snapshots and the Vector maps in
// them are read-only, so -race must stay silent, nothing may fail, and
// once the writer stops every reader's student gets the unrewritten
// answer.
func TestRewriteConcurrentReaders(t *testing.T) {
	s, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	man, err := datagen.Populate(s, datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	students := rewriteStudents(t, s, man)[:4]
	intro, ok := s.Catalog.Course(man.Planted["intro-programming"])
	if !ok {
		t.Fatal("no intro-programming course")
	}
	requests := func(st int64) []draw {
		return []draw{
			{strategy: "cf-courses", params: map[string]any{"student": st, "k": 10}},
			{strategy: "hybrid", params: map[string]any{"student": st, "title": intro.Title, "k": 10}},
			{strategy: "department-popular", params: map[string]any{"dep": intro.DepID, "k": 10}},
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, st := range students {
		wg.Add(1)
		go func(st int64) {
			defer wg.Done()
			for {
				for _, d := range requests(st) {
					if _, err := s.Strategies.Run(s.Flex, d.strategy, d.params); err != nil {
						t.Errorf("reader %d: %s: %v", st, d.strategy, err)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(st)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		deadline := time.Now().Add(time.Second)
		for i := 0; time.Now().Before(deadline); i++ {
			if _, err := s.Comments.Add(comments.Comment{
				SuID: students[i%len(students)], CourseID: intro.ID + int64(i%7), Year: 2008, Term: "Winter",
				Text: "concurrent", Rating: float64(1 + i%5),
			}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	for _, st := range students {
		checkDraws(t, "after the writer stopped", s, requests(st))
	}
}
