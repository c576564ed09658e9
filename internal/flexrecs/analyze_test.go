package flexrecs

import (
	"reflect"
	"strings"
	"testing"

	"courserank/internal/matview"
)

// TestRunAnalyzeAnnotatesWorkflow: a hybrid workflow's analyze report
// shows the operator tree with per-step actuals, SQL leaves with their
// fully annotated physical plans, and results identical to Run.
func TestRunAnalyzeAnnotatesWorkflow(t *testing.T) {
	e := NewEngine(paperDB(t))
	wf := Recommend(
		Rel("Courses").Select("Year = 2008"),
		Rel("Courses").Select("Title = ?", "Introduction to Programming"),
		JaccardOn("Title"),
	)
	want, err := e.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	got, report, err := e.RunAnalyze(wf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("RunAnalyze diverged from Run:\n got %v\nwant %v", got.Rows, want.Rows)
	}
	for _, wantFrag := range []string{
		"▷[Jaccard[Title] as Score] (actual rows=4 time=",                   // operator line with actuals
		"SQL> SELECT * FROM Courses WHERE Year = 2008 (actual rows=4 time=", // compiled leaf
		"-- args [Introduction to Programming]",                             // bound leaf args
		"| scan Courses",                                                    // the SQL engine's annotated plan, piped
		"| analyzed: ",                                                      // per-statement footer rode along
		"analyzed workflow: 4 rows out, total ",                             // workflow footer
	} {
		if !strings.Contains(report, wantFrag) {
			t.Errorf("report missing %q:\n%s", wantFrag, report)
		}
	}
}

// TestRunAnalyzeMatviewAnnotations: materialize lines say how the
// request was served — built when cold, hit with age and freshness
// when warm.
func TestRunAnalyzeMatviewAnnotations(t *testing.T) {
	db := paperDB(t)
	e := NewEngine(db)
	e.UseMatviews(matview.NewRegistry(db))

	_, cold, err := e.RunAnalyze(deptPopular("CS"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "matview miss (built by this request)") {
		t.Fatalf("cold run not annotated as a build:\n%s", cold)
	}
	_, warm, err := e.RunAnalyze(deptPopular("HIST"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "matview hit (age=") || !strings.Contains(warm, ", fresh)") {
		t.Fatalf("warm run not annotated as a fresh hit:\n%s", warm)
	}

	// Without a registry the step is transparent and says so.
	plain := NewEngine(db)
	_, rep, err := plain.RunAnalyze(deptPopular("CS"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "no registry (transparent, ran child)") {
		t.Fatalf("transparent materialize not annotated:\n%s", rep)
	}
}
