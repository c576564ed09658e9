package flexrecs

import (
	"strings"
	"testing"
)

// countViews counts the registered views whose name starts with prefix.
func countViews(e *Engine, prefix string) int {
	n := 0
	for _, v := range e.Matviews().Views() {
		if strings.HasPrefix(v.Name(), prefix) {
			n++
		}
	}
	return n
}

// TestViewKeyIsExactShape: a view's registry key tells apart everything a
// plan's shape does, blend weights by their bits, and every value its
// subtree binds by type and value. Views over two blends whose weights
// agree to two digits are two views, each answering what a registry-less
// engine answers, and a view bound to int64(1) is not the one bound to
// float64(1).
func TestViewKeyIsExactShape(t *testing.T) {
	rw, plain := rewritingEngine(t)
	check := func(name string, w func() *Step) {
		t.Helper()
		want, err := plain.Run(w())
		if err != nil {
			t.Fatal(err)
		}
		got, err := rw.Run(w())
		if err != nil {
			t.Fatal(err)
		}
		if !sameCells(got, want) {
			t.Errorf("%s: rows\n got %v\nwant %v", name, got.Rows, want.Rows)
		}
	}

	// The blend is a parameter-free operand of the outer ▷, so the
	// rewriter materializes it whole, its weights inside the view.
	blended := func(wR float64) func() *Step {
		return func() *Step {
			content := Recommend(Rel("Courses"), Rel("Courses").Select("Title = 'Introduction to Programming'"), JaccardOn("Title")).
				Project("CourseID", "Title", "Score")
			popular := Recommend(Rel("Courses"),
				Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings"),
				AvgOf("CourseID", "Ratings")).Project("CourseID", "Score")
			return Recommend(Blend(content, popular, "CourseID", "Score", 1, wR),
				Rel("Courses").Select("CourseID = ?", int64(1)), JaccardOn("Title")).As("Sim")
		}
	}
	for _, wR := range []float64{0.2, 0.201, 0.2, 0.201} {
		check("blend", blended(wR))
	}
	if n := countViews(rw, "flex/comments+courses-operand@"); n != 2 {
		t.Errorf("blends weighted 0.2 and 0.201 share %d views, want 2", n)
	}

	// A view bound to a value is one view per binding, typed.
	mine := func(st any) func() *Step {
		return func() *Step {
			nest := Rel("Comments").Select("SuID = ?", st).Project("SuID", "CourseID", "Rating").
				Extend("SuID", "CourseID", "Rating", "Ratings").materialize("mine")
			return Recommend(Rel("Courses"), nest, AvgOf("CourseID", "Ratings")).Top(3)
		}
	}
	for _, st := range []any{int64(1), float64(1), int64(444), float64(444), int64(1)} {
		check("bound view", mine(st))
	}
	if n := countViews(rw, "flex/mine@"); n != 4 {
		t.Errorf("views bound to int64 and float64 1 and 444: %d views, want 4", n)
	}
}
