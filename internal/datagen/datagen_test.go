package datagen

import (
	"fmt"
	"reflect"
	"testing"

	"courserank/internal/core"
	"courserank/internal/relation"
	"courserank/internal/wal"
)

// populateTiny builds a Tiny site once per test needing it.
func populateTiny(t *testing.T) (*core.Site, *Manifest) {
	t.Helper()
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	man, err := Populate(site, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return site, man
}

func TestTinyScaleCounts(t *testing.T) {
	site, man := populateTiny(t)
	cfg := Tiny()
	scale := site.Scale()
	if scale.Courses != cfg.Courses {
		t.Errorf("courses = %d, want %d", scale.Courses, cfg.Courses)
	}
	if scale.Comments != cfg.Comments {
		t.Errorf("comments = %d, want %d", scale.Comments, cfg.Comments)
	}
	if scale.Ratings != cfg.Ratings {
		t.Errorf("ratings = %d, want %d", scale.Ratings, cfg.Ratings)
	}
	if scale.DirectorySize != cfg.DirectoryStudents+cfg.Faculty+cfg.Staff {
		t.Errorf("directory = %d", scale.DirectorySize)
	}
	if man.SampleStudent == 0 || man.TwinStudent == 0 {
		t.Error("sample students should be assigned")
	}
	if len(man.Planted) < 6 {
		t.Errorf("planted = %v", man.Planted)
	}
}

// TestThemeCalibration is the heart of Figures 3 and 4: the "american"
// search count equals the themed-course count, and refining to
// "african american" matches the sub-theme count.
func TestThemeCalibration(t *testing.T) {
	site, man := populateTiny(t)
	res, err := site.SearchCourses("american")
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != man.ThemedCourses {
		t.Errorf("search 'american' = %d results, want exactly %d", res.Total(), man.ThemedCourses)
	}
	ref, err := site.RefineSearch(res, "african american")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Total() != man.AfricanAmericanCourses {
		t.Errorf("refine 'african american' = %d, want exactly %d", ref.Total(), man.AfricanAmericanCourses)
	}
	// Proportions follow the paper's 1160/18605 and 123/1160.
	cfg := Tiny()
	wantThemed := int(float64(cfg.Courses)*1160.0/18605.0 + 0.5)
	if man.ThemedCourses != wantThemed {
		t.Errorf("themed = %d, want %d", man.ThemedCourses, wantThemed)
	}
}

func TestCloudContainsSubThemes(t *testing.T) {
	site, _ := populateTiny(t)
	res, err := site.SearchCourses("american")
	if err != nil {
		t.Fatal(err)
	}
	c, err := site.CourseCloud(res, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Terms) == 0 {
		t.Fatal("cloud is empty")
	}
	if c.Has("american") {
		t.Error("query term must not appear in its own cloud")
	}
	// At tiny scale at least one of the published sub-themes should
	// surface.
	if !c.Has("latin american") && !c.Has("african american") && !c.Has("history") && !c.Has("politics") {
		t.Errorf("no sub-theme in cloud: %s", c.String())
	}
}

func TestFigure5aWorkflowOnGeneratedData(t *testing.T) {
	site, man := populateTiny(t)
	res, err := site.Strategies.Run(site.Flex, "related-courses", map[string]any{
		"title": "Introduction to Programming",
		"year":  int64(2008),
		"k":     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no related courses")
	}
	ti := res.MustCol("Title")
	if res.Rows[0][ti] != "Introduction to Programming" {
		t.Errorf("top related course = %v", res.Rows[0][ti])
	}
	_ = man
}

func TestFigure5bWorkflowOnGeneratedData(t *testing.T) {
	site, man := populateTiny(t)
	res, err := site.Strategies.Run(site.Flex, "cf-courses", map[string]any{
		"student": man.SampleStudent,
		"k":       10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no CF recommendations")
	}
	si := res.MustCol("Score")
	if res.Rows[0][si].(float64) <= 0 {
		t.Errorf("top score = %v", res.Rows[0][si])
	}
}

func TestGradePeersStrategy(t *testing.T) {
	site, man := populateTiny(t)
	res, err := site.Strategies.Run(site.Flex, "grade-peers", map[string]any{
		"student": man.SampleStudent,
		"k":       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("grade-peers returned nothing")
	}
}

func TestHybridStrategy(t *testing.T) {
	site, man := populateTiny(t)
	res, err := site.Strategies.Run(site.Flex, "hybrid", map[string]any{
		"student": man.SampleStudent,
		"title":   "Introduction to Programming",
		"k":       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("hybrid returned nothing")
	}
	// The title-identical course should blend to the top (content 1.0
	// plus its CF contribution).
	ci := res.MustCol("CourseID")
	if res.Rows[0][ci] != man.Planted["intro-programming"] {
		t.Errorf("top hybrid = %v", res.Rows[0][ci])
	}
}

func TestDepartmentPopularStrategy(t *testing.T) {
	site, _ := populateTiny(t)
	res, err := site.Strategies.Run(site.Flex, "department-popular", map[string]any{"dep": "CS", "k": 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("department-popular returned nothing")
	}
}

func TestRequirementProgramsDefined(t *testing.T) {
	site, man := populateTiny(t)
	if len(man.Programs) == 0 {
		t.Fatal("no programs defined")
	}
	prog, ok := site.Requirements.Get("CS-BS")
	if !ok {
		t.Fatal("CS-BS missing")
	}
	// A student who took the full intro sequence plus systems satisfies
	// the first two requirements.
	taken := []int64{
		man.Planted["intro-programming"],
		man.Planted["programming-abstractions"],
		man.Planted["operating-systems"],
	}
	rep := site.RequirementsCheck(prog, taken)
	if !rep.Results[0].Satisfied || !rep.Results[1].Satisfied {
		t.Errorf("intro+systems should satisfy: %+v", rep.Results[:2])
	}
}

func TestDeterminism(t *testing.T) {
	s1, m1 := populateTiny(t)
	s2, m2 := populateTiny(t)
	if m1.ThemedCourses != m2.ThemedCourses || m1.SampleStudent != m2.SampleStudent {
		t.Error("generation is not deterministic")
	}
	r1, _ := s1.SearchCourses("american")
	r2, _ := s2.SearchCourses("american")
	if r1.Total() != r2.Total() {
		t.Error("search results differ across identical seeds")
	}
	if len(r1.Hits) > 0 && r1.Hits[0].DocID != r2.Hits[0].DocID {
		t.Error("rankings differ across identical seeds")
	}
	// Prereqs is the table whose generator draws from the rng inside a
	// per-department loop: the loop's order must not come from a map.
	prereqs := func(s *core.Site) []string {
		var rows []string
		s.DB.MustTable("Prereqs").Scan(func(_ int, r relation.Row) bool {
			rows = append(rows, fmt.Sprint(r))
			return true
		})
		return rows
	}
	p1, p2 := prereqs(s1), prereqs(s2)
	if len(p1) == 0 || !reflect.DeepEqual(p1, p2) {
		t.Errorf("Prereqs differ across identical seeds (%d vs %d rows)", len(p1), len(p2))
	}
}

func TestTable1Verified(t *testing.T) {
	site, _ := populateTiny(t)
	rows := site.Table1()
	if len(rows) != 10 {
		t.Fatalf("Table 1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("row %q not verified against the live instance", r.Dimension)
		}
	}
}

func TestComponentsAllHealthy(t *testing.T) {
	site, _ := populateTiny(t)
	for _, c := range site.Components() {
		if !c.OK {
			t.Errorf("component %q unhealthy", c.Name)
		}
	}
	if len(site.Components()) != 13 {
		t.Errorf("components = %d", len(site.Components()))
	}
}

func TestExpertRouting(t *testing.T) {
	site, _ := populateTiny(t)
	experts := site.QA.ByDepartment("CS")
	if len(experts) == 0 {
		t.Error("CS should have seeded FAQs")
	}
}

// TestSnapshotRoundTripOfDeployment populates a durable site,
// checkpoints it and reopens the directory: the checkpoint file (the
// one snapshot format) carries the whole generated deployment.
func TestSnapshotRoundTripOfDeployment(t *testing.T) {
	dir := t.TempDir()
	opts := relation.DurableOptions{Sync: wal.SyncNone}
	site, err := core.NewDurableSite(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Populate(site, Tiny()); err != nil {
		t.Fatal(err)
	}
	if err := site.Durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, name := range site.DB.Names() {
		want[name] = site.DB.MustTable(name).Len()
	}
	courses := site.Scale().Courses
	site.Close()

	loaded, err := core.NewDurableSite(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := loaded.Durable.Stats().RecoveredRecords; got != 0 {
		t.Errorf("reopen replayed %d WAL records, want everything from the checkpoint", got)
	}
	// Every table survives with identical cardinality.
	for name, n := range want {
		got, ok := loaded.DB.Table(name)
		if !ok {
			t.Fatalf("table %s lost", name)
		}
		if got.Len() != n {
			t.Errorf("table %s: %d rows, want %d", name, got.Len(), n)
		}
	}
	// And the SQL engine works against the restored database.
	res, err := loaded.SQL.Query(`SELECT COUNT(*) FROM Courses`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(courses) {
		t.Errorf("restored course count = %v, want %d", res.Rows[0][0], courses)
	}
}

func TestFacultyContentGenerated(t *testing.T) {
	site, man := populateTiny(t)
	notes := site.Comments.Notes(man.Planted["intro-programming"])
	if len(notes) == 0 {
		t.Error("anchor course should have an instructor note")
	}
	// At least one early comment has an instructor response.
	found := false
	for i := int64(1); i <= 20; i++ {
		if len(site.Comments.Responses(i)) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no instructor responses generated")
	}
}

func TestPopulateValidation(t *testing.T) {
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Populate(site, Config{}); err == nil {
		t.Error("empty config should fail")
	}
}
