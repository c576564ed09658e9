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

	// A new rating must appear in the next run. The view nests one table's
	// rows, so the read patches the rater's group instead of rebuilding.
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
	if _, m := mat.MatStats(); m != 1 {
		t.Fatalf("misses = %d, want the DML served by a patch, not a rebuild", m)
	}
	if st := reg.Views()[0].Stats(); st.Refreshes != 1 || st.Patches != 1 {
		t.Fatalf("view stats %+v, want the cold build and one patch", st)
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

// TestMaterializeExplainSaysPatchOrRebuild: on a maintained ε view,
// Explain says what the next read does — patch after a write, rebuild
// after DDL dropped the snapshot — and analyze says how many keys a hit
// recomputed.
func TestMaterializeExplainSaysPatchOrRebuild(t *testing.T) {
	db := paperDB(t)
	e := NewEngine(db)
	e.UseMatviews(matview.NewRegistry(db))
	if _, err := e.Run(deptPopular("CS")); err != nil {
		t.Fatal(err)
	}
	if out := e.Explain(deptPopular("CS")); !strings.Contains(out, "matview[ratings-extend] — matview hit (age=") || !strings.Contains(out, ", fresh)") {
		t.Fatalf("warm explain:\n%s", out)
	}
	addComments(db, relation.Row{447, 4, 2008, "Aut", "neat", 5, "d"}, relation.Row{446, 4, 2008, "Aut", "dull", 1, "d"})
	if out := e.Explain(deptPopular("CS")); !strings.Contains(out, ", stale, next read patches)") {
		t.Fatalf("explain after a write:\n%s", out)
	}
	_, report, err := e.RunAnalyze(deptPopular("CS"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, ", fresh, patched 2 keys)") {
		t.Fatalf("analyze after a write:\n%s", report)
	}

	// An index added to a live table moves its schema epoch: the snapshot
	// can no longer serve, whatever the change logs say.
	if err := db.MustTable("Comments").AddOrderedIndex("Year"); err != nil {
		t.Fatal(err)
	}
	if out := e.Explain(deptPopular("CS")); !strings.Contains(out, "matview[ratings-extend] — invalidated, next read rebuilds") {
		t.Fatalf("explain after DDL:\n%s", out)
	}
	_, report, err = e.RunAnalyze(deptPopular("CS"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "matview miss (built by this request)") {
		t.Fatalf("analyze after DDL:\n%s", report)
	}
}

func TestMaterializeValidate(t *testing.T) {
	bad := Rel("Comments").materialize("")
	if err := bad.Validate(); err == nil {
		t.Fatal("materialize without a name should fail validation")
	}
}
