package flexrecs_test

import (
	"reflect"
	"regexp"
	"testing"

	"courserank/internal/community"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/flexrecs"
)

// TestScoreFirstMatchesReferenceAtSmall is the differential oracle at the
// product's own scale: on a Small-scale site, hybrid, cf-courses,
// grade-peers and department-popular — for a spread of students, titles
// and departments, under k ∈ {1, 3, 10, 50, 10⁶}, and for a student who
// has just registered and so is missing from the views cf-courses and
// grade-peers read — answer through the site engine exactly what the
// materializing reference answers on the same rewritten tree and the
// same views.
func TestScoreFirstMatchesReferenceAtSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Small-scale site")
	}
	s, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	man, err := datagen.Populate(s, datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	intro, ok := s.Catalog.Course(man.Planted["intro-programming"])
	if !ok {
		t.Fatal("no intro-programming course")
	}
	students := []int64{man.SampleStudent, man.TwinStudent, 9_999_999}
	res, err := s.SQL.Query(`SELECT SuID FROM Comments GROUP BY SuID ORDER BY SuID LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		students = append(students, row[0].(int64))
	}
	titles := []string{intro.Title, "American History", "no such title"}
	deps, err := s.SQL.Query(`SELECT DepID FROM Courses GROUP BY DepID ORDER BY DepID LIMIT 6`)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, params map[string]any) {
		t.Helper()
		tpl, ok := s.Strategies.Get(name)
		if !ok {
			t.Fatalf("missing strategy %q", name)
		}
		wf, err := tpl.Build(params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Flex.Run(wf)
		if err != nil {
			t.Fatalf("%s %v: %v", name, params, err)
		}
		want, err := flexrecs.RunReference(s.Flex, wf)
		if err != nil {
			t.Fatalf("reference %s %v: %v", name, params, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %v: score-first and reference answers differ\n got %v\nwant %v", name, params, got.Rows, want.Rows)
		}
	}
	// A student who has just registered has no rating and no grade, so is
	// missing from the nestings cf-courses and grade-peers read: the
	// fused σ SuID <> ? keeps every row of the view, SuID = ? none.
	if err := s.Directory.Add(community.DirectoryEntry{Username: "newcomer", Name: "New Comer",
		Role: community.RoleStudent, DepID: "CS", ClassYear: 2012, Undergrad: true}); err != nil {
		t.Fatal(err)
	}
	newcomer, err := s.Community.Register("newcomer")
	if err != nil {
		t.Fatal(err)
	}
	keptAll := regexp.MustCompile(`σ\[SuID <> \?\]  -- args \[\d+\] \(fused into ▷\[[^()]*\]: kept (\d+) of (\d+)\)`)
	for _, name := range []string{"cf-courses", "grade-peers"} {
		tpl, _ := s.Strategies.Get(name)
		wf, err := tpl.Build(map[string]any{"student": newcomer.ID})
		if err != nil {
			t.Fatal(err)
		}
		_, report, err := s.Flex.RunAnalyze(wf)
		if err != nil {
			t.Fatal(err)
		}
		if m := keptAll.FindStringSubmatch(report); m == nil || m[1] != m[2] {
			t.Fatalf("%s for a student missing from the view: the fused σ does not keep every row\n%s", name, report)
		}
		for _, k := range []int64{1, 10, 1_000_000} {
			check(name, map[string]any{"student": newcomer.ID, "k": k})
		}
	}

	for _, k := range []int64{1, 3, 10, 50, 1_000_000} {
		for _, st := range students {
			for _, title := range titles {
				check("hybrid", map[string]any{"student": st, "title": title, "k": k})
			}
			check("cf-courses", map[string]any{"student": st, "k": k})
			check("grade-peers", map[string]any{"student": st, "k": k})
		}
		for _, d := range deps.Rows {
			check("department-popular", map[string]any{"dep": d[0], "k": k})
		}
	}
}
