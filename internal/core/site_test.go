package core

import (
	"strings"
	"testing"

	"courserank/internal/catalog"
	"courserank/internal/comments"
	"courserank/internal/community"
	"courserank/internal/planner"
	"courserank/internal/relation"
	"courserank/internal/requirements"
	"courserank/internal/wal"
)

// seedSite builds a minimal hand-populated site (no datagen, which
// would be an import cycle here).
func seedSite(t *testing.T) *Site {
	t.Helper()
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(s.Catalog.AddDepartment(catalog.Department{ID: "CS", Name: "Computer Science", School: "Engineering"}))
	must(s.Catalog.AddDepartment(catalog.Department{ID: "HISTORY", Name: "History", School: "H&S"}))
	intro, err := s.Catalog.AddCourse(catalog.Course{DepID: "CS", Number: "106A", Title: "Introduction to Programming", Description: "java basics", Units: 5})
	must(err)
	hist, err := s.Catalog.AddCourse(catalog.Course{DepID: "HISTORY", Number: "1", Title: "American History", Description: "a survey of american politics", Units: 3})
	must(err)
	inst, err := s.Catalog.AddInstructor(catalog.Instructor{Name: "Prof. Ada", DepID: "CS"})
	must(err)
	_, err = s.Catalog.AddOffering(catalog.Offering{CourseID: intro, Year: 2008, Term: catalog.Autumn, Days: "MWF", StartMin: 600, EndMin: 650, InstructorID: inst})
	must(err)
	_, err = s.Catalog.AddOffering(catalog.Offering{CourseID: hist, Year: 2008, Term: catalog.Winter, Days: "TR", StartMin: 600, EndMin: 675})
	must(err)
	must(s.Directory.Add(community.DirectoryEntry{Username: "sally", Name: "Sally", Role: community.RoleStudent, DepID: "CS", Undergrad: true}))
	must(s.Directory.Add(community.DirectoryEntry{Username: "widom", Name: "Prof. Widom", Role: community.RoleFaculty, DepID: "CS"}))
	u, err := s.Community.Register("sally")
	must(err)
	_, err = s.Community.Register("widom")
	must(err)
	must(s.Planner.Record(planner.Entry{SuID: u.ID, CourseID: intro, Year: 2008, Term: catalog.Autumn, Grade: "A"}))
	_, err = s.Comments.Add(comments.Comment{SuID: u.ID, CourseID: hist, Year: 2008, Term: "Winter", Text: "loved the american culture material", Rating: 5})
	must(err)
	must(s.RefreshDerived())
	must(s.BuildSearchIndex())
	return s
}

func TestSearchBeforeIndexBuild(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SearchCourses("x"); err == nil {
		t.Error("search before BuildSearchIndex should fail")
	}
	if _, err := s.CourseCloud(nil, 10); err == nil {
		t.Error("cloud before BuildSearchIndex should fail")
	}
	if _, err := s.RefineSearch(nil, "x"); err == nil {
		t.Error("refine before BuildSearchIndex should fail")
	}
}

func TestEntitySearchCoversCommentsAndInstructors(t *testing.T) {
	s := seedSite(t)
	// "american" appears in title/description/comment of the history
	// course only.
	res, err := s.SearchCourses("american")
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 1 {
		t.Fatalf("american results = %d", res.Total())
	}
	// Instructor names are part of the course entity.
	res, err = s.SearchCourses("ada")
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 1 {
		t.Errorf("instructor search = %d results", res.Total())
	}
	// Department names too.
	res, _ = s.SearchCourses("computer science")
	if res.Total() != 1 {
		t.Errorf("department search = %d results", res.Total())
	}
}

func TestRefreshDerivedTables(t *testing.T) {
	s := seedSite(t)
	ep, ok := s.DB.Table("EnrollmentPoints")
	if !ok || ep.Len() != 1 {
		t.Fatalf("EnrollmentPoints = %v", ep)
	}
	cy, ok := s.DB.Table("CourseYears")
	if !ok || cy.Len() != 2 {
		t.Fatalf("CourseYears len = %d", cy.Len())
	}
	// Refresh is idempotent (drops and rebuilds).
	if err := s.RefreshDerived(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndComponents(t *testing.T) {
	s := seedSite(t)
	sc := s.Scale()
	if sc.Courses != 2 || sc.Comments != 1 || sc.Users != 2 {
		t.Errorf("scale = %+v", sc)
	}
	for _, c := range s.Components() {
		if !c.OK {
			t.Errorf("component %s down", c.Name)
		}
	}
}

func TestTable1LiveChecks(t *testing.T) {
	s := seedSite(t)
	for _, row := range s.Table1() {
		if !row.Verified {
			t.Errorf("row %q unverified", row.Dimension)
		}
	}
}

func TestStrategiesRegistered(t *testing.T) {
	s := seedSite(t)
	names := []string{}
	for _, tpl := range s.Strategies.List() {
		names = append(names, tpl.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"related-courses", "cf-courses", "grade-peers", "department-popular"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing strategy %s in %v", want, names)
		}
	}
	// Strategy parameter validation.
	if _, err := s.Strategies.Run(s.Flex, "related-courses", map[string]any{}); err == nil {
		t.Error("related-courses without title should fail")
	}
	if _, err := s.Strategies.Run(s.Flex, "cf-courses", map[string]any{}); err == nil {
		t.Error("cf-courses without student should fail")
	}
	if _, err := s.Strategies.Run(s.Flex, "grade-peers", map[string]any{}); err == nil {
		t.Error("grade-peers without student should fail")
	}
	if _, err := s.Strategies.Run(s.Flex, "department-popular", map[string]any{}); err == nil {
		t.Error("department-popular without dep should fail")
	}
}

func TestRelatedCoursesWithYearScope(t *testing.T) {
	s := seedSite(t)
	res, err := s.Strategies.Run(s.Flex, "related-courses", map[string]any{
		"title": "Introduction to Programming", "year": int64(2008), "k": 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d (both courses offered 2008)", res.Len())
	}
	// Year with no offerings yields nothing.
	res, err = s.Strategies.Run(s.Flex, "related-courses", map[string]any{
		"title": "Introduction to Programming", "year": int64(1999), "k": 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("1999 rows = %d", res.Len())
	}
}

func TestExpertiseRouting(t *testing.T) {
	s := seedSite(t)
	exp := expertise{s}
	ids := exp.ExpertsIn("CS", 5)
	if len(ids) < 2 {
		t.Fatalf("experts = %v", ids)
	}
	// Faculty outrank students.
	fac, _ := s.Community.UserByUsername("widom")
	if ids[0] != fac.ID {
		t.Errorf("faculty should rank first: %v", ids)
	}
	if got := exp.ExpertsIn("NONE", 5); len(got) != 0 {
		t.Errorf("unknown dept experts = %v", got)
	}
}

func TestAuxIndexes(t *testing.T) {
	s := seedSite(t)
	// Before building: errors.
	if _, err := s.SearchInstructors("ada"); err == nil {
		t.Error("instructor search before BuildAuxIndexes should fail")
	}
	if _, err := s.SearchBooks("x"); err == nil {
		t.Error("book search before BuildAuxIndexes should fail")
	}
	// Add a textbook so the book index has content.
	intro := int64(1)
	if _, err := s.Catalog.ReportTextbook(catalog.Textbook{CourseID: intro, Title: "The Art of Java", Author: "Gosling", ReportedBy: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildAuxIndexes(); err != nil {
		t.Fatal(err)
	}
	// Instructor entity spans name, department and taught titles.
	res, err := s.SearchInstructors("ada")
	if err != nil || res.Total() != 1 {
		t.Errorf("instructor by name: %v, %v", res, err)
	}
	res, _ = s.SearchInstructors("programming") // via taught course title
	if res.Total() != 1 {
		t.Errorf("instructor by taught title: %d", res.Total())
	}
	// Book entity spans title, author, and owning course.
	res, err = s.SearchBooks("gosling")
	if err != nil || res.Total() != 1 {
		t.Errorf("book by author: %v, %v", res, err)
	}
	res, _ = s.SearchBooks("programming") // via course title
	if res.Total() != 1 {
		t.Errorf("book by course: %d", res.Total())
	}
	if _, err := s.InstructorIndex(); err != nil {
		t.Error(err)
	}
	if _, err := s.BookIndex(); err != nil {
		t.Error(err)
	}
}

func TestRequirementsCheckFacade(t *testing.T) {
	s := seedSite(t)
	prog := requirements.Program{Name: "mini", Requirements: []requirements.Requirement{
		{Name: "one", Kind: requirements.KindChoose, K: 1, Courses: []int64{1, 2}},
	}}
	rep := s.RequirementsCheck(prog, []int64{1})
	if !rep.Satisfied {
		t.Errorf("report = %+v", rep)
	}
	rep = s.RequirementsCheck(prog, nil)
	if rep.Satisfied {
		t.Error("empty transcript should not satisfy")
	}
}

func TestHybridStrategyParamValidation(t *testing.T) {
	s := seedSite(t)
	if _, err := s.Strategies.Run(s.Flex, "hybrid", map[string]any{"title": "x"}); err == nil {
		t.Error("hybrid without student should fail")
	}
	if _, err := s.Strategies.Run(s.Flex, "hybrid", map[string]any{"student": int64(1)}); err == nil {
		t.Error("hybrid without title should fail")
	}
}

func TestIntParamCoercions(t *testing.T) {
	if intParam(map[string]any{"k": 7}, "k", 3) != 7 {
		t.Error("int")
	}
	if intParam(map[string]any{"k": int64(9)}, "k", 3) != 9 {
		t.Error("int64")
	}
	if intParam(map[string]any{"k": "nope"}, "k", 3) != 3 {
		t.Error("bad type should default")
	}
	if intParam(map[string]any{}, "k", 3) != 3 {
		t.Error("missing should default")
	}
}

func TestCourseEntityDefWeights(t *testing.T) {
	def := CourseEntityDef()
	if def.Name != "course" || len(def.Fields) != 5 {
		t.Fatalf("def = %+v", def)
	}
	// Title outweighs comments (§3.1's ranking question).
	var title, comments float64
	for _, f := range def.Fields {
		switch f.Name {
		case "title":
			title = f.Weight
		case "comments":
			comments = f.Weight
		}
	}
	if title <= comments {
		t.Errorf("title weight %v should exceed comments %v", title, comments)
	}
}

// TestDurableSiteRoundTrip: a durable site survives Close and reopen —
// catalog, community and comment rows all come back, the auto-increment
// sequences resume past recovered ids, and the rebuilt search index
// answers queries over recovered text.
func TestDurableSiteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableSite(dir, relation.DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if s.Durable == nil {
		t.Fatal("durable site has nil Durable store")
	}
	if err := s.Catalog.AddDepartment(catalog.Department{ID: "CS", Name: "Computer Science", School: "Engineering"}); err != nil {
		t.Fatal(err)
	}
	intro, err := s.Catalog.AddCourse(catalog.Course{DepID: "CS", Number: "106A", Title: "Introduction to Programming", Description: "java basics", Units: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Directory.Add(community.DirectoryEntry{Username: "sally", Name: "Sally", Role: community.RoleStudent, DepID: "CS", Undergrad: true}); err != nil {
		t.Fatal(err)
	}
	u, err := s.Community.Register("sally")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Comments.Add(comments.Comment{SuID: u.ID, CourseID: intro, Year: 2008, Term: "Aut", Text: "great intro course", Rating: 5}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re, err := NewDurableSite(dir, relation.DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	c, ok := re.Catalog.Course(intro)
	if !ok || c.Title != "Introduction to Programming" {
		t.Fatalf("recovered course = %+v, %v", c, ok)
	}
	if _, err := re.Community.Login("sally", 1); err != nil {
		t.Fatalf("recovered user cannot log in: %v", err)
	}
	got, _ := re.Comments.TopByCourse(intro, 10)
	if len(got) != 1 || got[0].Text != "great intro course" {
		t.Fatalf("recovered comments = %+v", got)
	}
	// New inserts continue past recovered auto-increment ids.
	next, err := re.Catalog.AddCourse(catalog.Course{DepID: "CS", Number: "106B", Title: "Programming Abstractions", Description: "c++", Units: 5})
	if err != nil {
		t.Fatal(err)
	}
	if next <= intro {
		t.Errorf("auto-increment regressed: %d after %d", next, intro)
	}
	if err := re.BuildSearchIndex(); err != nil {
		t.Fatal(err)
	}
	res, err := re.SearchCourses("programming")
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 2 {
		t.Errorf("search over recovered+new rows found %d courses, want 2", res.Total())
	}
}
