package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"courserank/internal/catalog"
	"courserank/internal/comments"
	"courserank/internal/flexrecs"
	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/wal"
)

// TestReadYourWrites is the product's freshness oracle: on every
// configuration the server runs in — memory or durable (with a low
// checkpoint threshold), monolithic or two shards — a read after a
// write made through the site API sees the write. After a comment, and
// again after a review that rates the course in a transaction, the
// maintained feed is served fresh with no rebuild, and department-popular
// and cf-courses answer what a registry-less engine over the same
// backend computes from scratch — off the maintained ratings nesting,
// which is patched, not rebuilt; the course page's standalone rating
// average follows the review and a later rating.
func TestReadYourWrites(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("durable=%v/shards=%d", durable, shards), func(t *testing.T) {
				var s *Site
				var err error
				if durable {
					s, err = NewDurableSite(t.TempDir(), relation.DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 16})
				} else {
					s, err = NewSite()
				}
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				cs, _ := feedSite(t, s)
				if shards > 0 {
					if err := s.EnableSharding(shards); err != nil {
						t.Fatal(err)
					}
				}
				readYourWrites(t, s, cs[0])
			})
		}
	}
}

func readYourWrites(t *testing.T, s *Site, course int64) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	twin := flexrecs.NewEngineOver(s.SQL)
	if s.Sharded != nil {
		twin = flexrecs.NewEngineWithBackend(s.SQL, shardBackend{s.Sharded})
	}
	const student = 50 // has rated nothing yet
	feed, _ := s.Views.View(FeedViewName)
	_, _, err := s.TopRatedFeed("CS", 0) // the cold build
	must(err)
	builds := feed.Stats().Refreshes
	// The writer's cf-courses before it rated anything: the first read
	// after its comment must differ.
	cfBefore, err := s.Strategies.Run(s.Flex, "cf-courses", map[string]any{"student": int64(student), "k": 50})
	must(err)
	var nesting *matview.View
	for _, v := range s.Views.Views() {
		if strings.HasPrefix(v.Name(), "flex/ratings-extend@") {
			nesting = v
		}
	}
	if nesting == nil {
		t.Fatal("cf-courses registered no ratings nesting")
	}
	nestingBuilds := nesting.Stats().Refreshes

	reads := func(step string, raters int64) {
		t.Helper()
		list, serve, err := s.TopRatedFeed("CS", 0)
		must(err)
		want, err := s.buildTopRatedFeed()
		must(err)
		at := slices.IndexFunc(list, func(e FeedEntry) bool { return e.CourseID == course })
		if serve.Kind != matview.ServeFresh || !reflect.DeepEqual(list, want["CS"][:len(list)]) || at < 0 || list[at].Raters != raters {
			t.Fatalf("%s: feed served %v %+v, want fresh with course %d at %d raters: %+v", step, serve.Kind, list, course, raters, want["CS"])
		}
		if got := feed.Stats().Refreshes; got != builds {
			t.Fatalf("%s: the feed was rebuilt (%d builds, want %d)", step, got, builds)
		}
		for _, r := range []struct {
			strategy string
			params   map[string]any
		}{
			{"department-popular", map[string]any{"dep": "CS", "k": 50}},
			{"cf-courses", map[string]any{"student": int64(student), "k": 50}},
		} {
			got, err := s.Strategies.Run(s.Flex, r.strategy, r.params)
			must(err)
			fresh, err := s.Strategies.Run(twin, r.strategy, r.params)
			must(err)
			if !reflect.DeepEqual(got.Cols, fresh.Cols) || !reflect.DeepEqual(got.Rows, fresh.Rows) {
				t.Fatalf("%s: %s served\n %v\nwhere the write gives\n %v", step, r.strategy, got.Rows, fresh.Rows)
			}
			if r.strategy == "cf-courses" && cfBefore != nil {
				if reflect.DeepEqual(got.Rows, cfBefore.Rows) {
					t.Fatalf("%s: cf-courses for the writer did not move: %v", step, got.Rows)
				}
				cfBefore = nil
			}
		}
		if st := nesting.Stats(); st.Refreshes != nestingBuilds || st.Patches == 0 {
			t.Fatalf("%s: the ratings nesting made %d full builds, want %d, and %d patches", step, st.Refreshes, nestingBuilds, st.Patches)
		}
	}
	avg := func(step string, want float64, raters int) {
		t.Helper()
		if got, n := s.Comments.AvgRating(course); got != want || n != raters {
			t.Fatalf("%s: course page average %v from %d raters, want %v from %d", step, got, n, want, raters)
		}
	}

	_, err = s.Comments.Add(comments.Comment{SuID: student, CourseID: course, Year: 2009, Term: "Spring", Text: "read me back", Rating: 5})
	must(err)
	reads("after a comment", 2)

	_, err = s.EnrollCommentRate(Review{SuID: student + 1, CourseID: course, Year: 2009, Term: catalog.Spring, Text: "reviewed", Rating: 2})
	must(err)
	avg("after a review", 2, 1)
	must(s.Comments.Rate(student+1, course, 4))
	avg("after a rating", 4, 1)
	reads("after a review and a rating", 3)
}
