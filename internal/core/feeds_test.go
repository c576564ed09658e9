package core

import (
	"strings"
	"testing"

	"courserank/internal/comments"
	"courserank/internal/matview"
	"courserank/internal/recommend"
)

// TestTopRatedFeedLifecycle drives the maintained feed view end to end:
// cold build, warm hit, and a rating that the very next read reflects
// by patching the one course — no second build. (The rebuild and
// single-flight paths it falls back to are covered by internal/matview's
// own views.)
func TestTopRatedFeedLifecycle(t *testing.T) {
	s := seedSite(t)
	defer s.Close()

	entries, serve, err := s.TopRatedFeed("HISTORY", 5)
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != matview.ServeBuilt {
		t.Fatalf("cold feed served %v, want a build", serve.Kind)
	}
	if len(entries) != 1 || entries[0].Avg != 5 {
		t.Fatalf("HISTORY feed = %+v, want the one rated course at 5", entries)
	}

	if _, serve, err = s.TopRatedFeed("HISTORY", 5); err != nil || serve.Kind != matview.ServeFresh {
		t.Fatalf("warm feed served %v (err=%v), want a fresh hit", serve.Kind, err)
	}

	if _, err := s.Comments.Add(comments.Comment{SuID: 1, CourseID: entries[0].CourseID, Year: 2008, Term: "Winter", Text: "again", Rating: 1}); err != nil {
		t.Fatal(err)
	}
	entries, serve, err = s.TopRatedFeed("HISTORY", 5)
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != matview.ServeFresh || len(entries) != 1 || entries[0].Avg != 3 || entries[0].Raters != 2 {
		t.Fatalf("read after the rating served %v %+v, want (5+1)/2 = 3 from 2 raters, fresh", serve.Kind, entries)
	}

	v, ok := s.Views.View(FeedViewName)
	if !ok {
		t.Fatal("feed view not registered")
	}
	st := v.Stats()
	if st.Refreshes != 1 || st.Patches != 1 || st.Misses != 1 {
		t.Fatalf("feed view stats = %+v, want 1 build, 1 patch", st)
	}
}

// TestRatingsViewSharedRegistry: the baseline recommenders' ratings
// view must land in the Site's registry (not a private one) so it
// shows up in /api/views.
func TestRatingsViewSharedRegistry(t *testing.T) {
	s := seedSite(t)
	defer s.Close()
	if out := s.Baseline.Popularity(1, 5); len(out) == 0 {
		t.Fatal("Popularity returned nothing")
	}
	if _, ok := s.Views.View(recommend.RatingsViewName); !ok {
		t.Fatalf("ratings view missing from the shared registry; have %v",
			viewNames(s))
	}
}

func viewNames(s *Site) []string {
	var names []string
	for _, v := range s.Views.Views() {
		names = append(names, v.Name())
	}
	return names
}

// TestDepartmentPopularRidesMatview: the strategy's extend prefix must
// serve from the materialized view on repeat runs, and Explain must say
// so.
func TestDepartmentPopularRidesMatview(t *testing.T) {
	s := seedSite(t)
	defer s.Close()
	tpl, ok := s.Strategies.Get("department-popular")
	if !ok {
		t.Fatal("no department-popular strategy")
	}
	run := func(dep string) int {
		res, err := s.Strategies.Run(s.Flex, "department-popular", map[string]any{"dep": dep, "k": 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Len()
	}
	if n := run("HISTORY"); n == 0 {
		t.Fatal("first run empty")
	}
	h0, m0 := s.Flex.MatStats()
	if m0 == 0 {
		t.Fatal("first run should have built the ratings-extend view")
	}
	// A DIFFERENT department hits the same shared view.
	run("CS")
	if h1, m1 := s.Flex.MatStats(); h1 != h0+1 || m1 != m0 {
		t.Fatalf("second department: hits %d→%d misses %d→%d, want one more hit off the shared view", h0, h1, m0, m1)
	}
	wf, err := tpl.Build(map[string]any{"dep": "CS", "k": 5})
	if err != nil {
		t.Fatal(err)
	}
	if out := s.Flex.Explain(wf); !strings.Contains(out, "matview hit (age=") {
		t.Fatalf("explain does not annotate the matview serve:\n%s", out)
	}
}
