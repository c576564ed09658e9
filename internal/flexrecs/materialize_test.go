package flexrecs

import (
	"reflect"
	"strings"
	"testing"

	"courserank/internal/matview"
	"courserank/internal/relation"
)

// deptPopular is the department-popular shape: the reference side —
// every student's rating vector — wrapped in a materialize step so all
// departments share one build.
func deptPopular(dep string) *Step {
	return Recommend(
		Rel("Courses").Select("DepID = ?", dep),
		Rel("Comments").Project("SuID", "CourseID", "Rating").
			Extend("SuID", "CourseID", "Rating", "Ratings").
			materialize("ratings-extend"),
		AvgOf("CourseID", "Ratings"),
	).Top(10)
}

func TestMaterializeParityAndServing(t *testing.T) {
	db := paperDB(t)
	plain := NewEngine(db) // no registry: materialize is transparent
	mat := NewEngineOver(plain.SQL())
	reg := matview.NewRegistry(db)
	mat.UseMatviews(reg)

	want, err := plain.Run(deptPopular("CS"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mat.Run(deptPopular("CS"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("materialized run diverged:\n got %v\nwant %v", got.Rows, want.Rows)
	}
	if h, m := mat.MatStats(); h != 0 || m != 1 {
		t.Fatalf("cold MatStats = %d/%d, want 0 hits, 1 miss", h, m)
	}

	// A different department reuses the SAME view: the reference prefix
	// has no department parameter.
	if _, err := mat.Run(deptPopular("HIST")); err != nil {
		t.Fatal(err)
	}
	if h, m := mat.MatStats(); h != 1 || m != 1 {
		t.Fatalf("warm MatStats hits=%d misses=%d, want the second department to hit", h, m)
	}
	if len(reg.Views()) != 1 {
		t.Fatalf("registered %d views, want 1 shared across departments", len(reg.Views()))
	}

	// DML invalidates: a new rating must appear in the next run.
	addComments(plain.SQL().DB(), relation.Row{447, 4, 2008, "Aut", "neat", 5, "d"})
	res, err := mat.Run(deptPopular("HIST"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := plain.Run(deptPopular("HIST"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, fresh.Rows) {
		t.Fatalf("post-DML materialized run diverged:\n got %v\nwant %v", res.Rows, fresh.Rows)
	}
	if _, m := mat.MatStats(); m != 2 {
		t.Fatalf("misses = %d, want the DML to force a rebuild", m)
	}
}

// TestMaterializeSnapshotNotMutated guards the serve-side copy: the
// recommend operator sorts its target in place, so serving the shared
// snapshot without a fresh row slice would reorder it under other
// readers.
func TestMaterializeSnapshotNotMutated(t *testing.T) {
	db := paperDB(t)
	e := NewEngine(db)
	e.UseMatviews(matview.NewRegistry(db))

	// Materialize a plain projection, then ORDER it two different ways:
	// both runs serve the same snapshot and sort their own copy.
	base := func() *Step {
		return Rel("Comments").Project("SuID", "CourseID", "Rating").
			materialize("comments-proj")
	}
	asc, err := e.Run(base().OrderBy("Rating", false))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := e.Run(base().OrderBy("Rating", true))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(asc.Rows, desc.Rows) {
		t.Fatal("asc and desc runs returned identical row orders")
	}
	again, err := e.Run(base().OrderBy("Rating", false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asc.Rows, again.Rows) {
		t.Fatal("snapshot was mutated by an earlier run's in-place sort")
	}
}

func TestMaterializeKeysOnArgsAndShape(t *testing.T) {
	db := paperDB(t)
	e := NewEngine(db)
	reg := matview.NewRegistry(db)
	e.UseMatviews(reg)

	one := func(student int64) *Step {
		return Rel("Comments").Select("SuID = ?", student).
			Extend("SuID", "CourseID", "Rating", "Ratings").
			materialize("per-student")
	}
	r444, err := e.Run(one(444))
	if err != nil {
		t.Fatal(err)
	}
	r446, err := e.Run(one(446))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r444.Rows, r446.Rows) {
		t.Fatal("different parameter bindings served the same view")
	}
	if len(reg.Views()) != 2 {
		t.Fatalf("registered %d views, want one per binding", len(reg.Views()))
	}
	// Same name over a structurally different subtree must not collide.
	other := Rel("Students").Project("SuID", "GPA").
		materialize("per-student")
	if _, err := e.Run(other); err != nil {
		t.Fatal(err)
	}
	if len(reg.Views()) != 3 {
		t.Fatalf("registered %d views, want a distinct view for the distinct shape", len(reg.Views()))
	}
}

func TestMaterializeExplainAnnotates(t *testing.T) {
	db := paperDB(t)
	e := NewEngine(db)
	e.UseMatviews(matview.NewRegistry(db))
	wf := deptPopular("CS")

	cold := e.Explain(wf)
	if !strings.Contains(cold, "matview[ratings-extend]") || !strings.Contains(cold, "cold") {
		t.Fatalf("cold explain missing matview annotation:\n%s", cold)
	}
	if _, err := e.Run(wf); err != nil {
		t.Fatal(err)
	}
	warm := e.Explain(deptPopular("HIST"))
	if !strings.Contains(warm, "matview hit (age=") {
		t.Fatalf("warm explain missing hit annotation:\n%s", warm)
	}

	bare := NewEngine(db) // no registry
	if out := bare.Explain(wf); !strings.Contains(out, "no registry") {
		t.Fatalf("registry-less explain should say the step is transparent:\n%s", out)
	}
}

func TestMaterializeValidate(t *testing.T) {
	bad := Rel("Comments").materialize("")
	if err := bad.Validate(); err == nil {
		t.Fatal("materialize without a name should fail validation")
	}
}
