package courserank

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"courserank/internal/comments"
	"courserank/internal/community"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/experiments"
	"courserank/internal/matview"
)

// readAfterWriteKB is what department-popular and the points read of
// TestReadAfterWriteAllocBudget allocated when the test was written (the
// median of its repetitions, this corpus), once the writer had made 50
// and 500 comments and ratings.
var readAfterWriteKB = map[string][2]float64{
	"department-popular": {64.3, 79.3},
	"points":             {8.4, 72.1},
}

// TestReadAfterWriteAllocBudget pins what a read after a write costs as
// the writer's history grows. At Small scale one student comments on one
// course and rates it (each write earning its points) 50 times, then 500
// times. At each size, every repetition adds one more comment and then
// reads the course's department feed, department-popular for that
// department, and the student's points and ledger as /api/points does:
//   - the feed read, which patches the course's group, allocates at most
//     1.25× at 500 what it does at 50;
//   - department-popular, which patches the student's group, and the
//     points read stay within 1.25× of readAfterWriteKB;
//   - Points and Ledger read the ledger in place: at most 2 allocations
//     per ledger event, and no more allocations at 500 than at 50.
//
// The points read is measured without /api/points' JSON encoding, whose
// pooled buffers make its bytes depend on the garbage collector.
func TestReadAfterWriteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a Small-scale site")
	}
	// A site of its own: the writes below would move what the tests on
	// the shared site read.
	r, err := experiments.NewRunner(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	s := r.Site
	u, ok := s.Community.User(r.Man.SampleStudent)
	if !ok {
		t.Fatal("the sample student has no account")
	}
	course, ok := s.Catalog.Course(r.Man.Planted["intro-programming"])
	if !ok {
		t.Fatal("no intro-programming course")
	}
	feed, ok := s.Views.View(core.FeedViewName)
	if !ok {
		t.Fatal("feed view not registered")
	}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	writes := 0
	comment := func() {
		writes++
		_, err := s.Comments.Add(comments.Comment{
			SuID: u.ID, CourseID: course.ID, Year: 2009, Term: "Spr",
			Text: "read after write", Rating: float64(1 + writes%5),
		})
		must(err)
		must(s.Community.Award(u.ID, "comment", community.PointsComment, ""))
	}
	write := func() {
		comment()
		must(s.Comments.Rate(u.ID, course.ID, float64(1+writes%5)))
		must(s.Community.Award(u.ID, "rating", community.PointsRating, ""))
	}
	reads := map[string]func(){
		"feed": func() {
			if _, serve, err := s.TopRatedFeed(course.DepID, 10); err != nil {
				t.Fatal(err)
			} else if serve.Kind != matview.ServeFresh {
				t.Fatalf("feed read after a comment was served %v, want fresh", serve.Kind)
			}
		},
		"department-popular": func() {
			_, err := s.Strategies.Run(s.Flex, "department-popular", map[string]any{"dep": course.DepID, "k": 10})
			must(err)
		},
		"points": func() {
			s.Community.Points(u.ID)
			s.Community.Ledger(u.ID)
		},
	}
	order := []string{"feed", "department-popular", "points"}
	if _, _, err := s.TopRatedFeed(course.DepID, 10); err != nil { // the cold build
		t.Fatal(err)
	}

	const reps = 20
	var kb [2]map[string]float64
	var ledgerMallocs [2]uint64
	for i, size := range []int{50, 500} {
		for writes < size {
			write()
		}
		for _, name := range order { // warm: the first read after the writes patches their backlog
			reads[name]()
		}
		samples := map[string][]allocation{}
		for rep := 0; rep < reps; rep++ {
			comment()
			for _, name := range order {
				samples[name] = append(samples[name], allocated(reads[name]))
			}
		}
		kb[i] = map[string]float64{}
		for name, runs := range samples {
			slices.SortFunc(runs, func(a, b allocation) int { return cmp.Compare(a.bytes, b.bytes) })
			kb[i][name] = float64(runs[reps/2].bytes) / 1024
			if name == "points" {
				ledgerMallocs[i] = runs[reps/2].mallocs
			}
		}
		events := len(s.Community.Ledger(u.ID))
		for _, name := range order {
			t.Logf("%d writes: %s %.1f KB a read", size, name, kb[i][name])
		}
		t.Logf("%d writes: Points and Ledger over %d events make %d allocations", size, events, ledgerMallocs[i])
		if ledgerMallocs[i] > 2*uint64(events) {
			t.Errorf("%d writes: Points and Ledger make %d allocations over %d ledger events, budget 2 an event",
				size, ledgerMallocs[i], events)
		}
		for name, want := range readAfterWriteKB {
			if got := kb[i][name]; got > 1.25*want[i] {
				t.Errorf("%d writes: %s allocates %.1f KB a read, budget 1.25 × %.1f KB", size, name, got, want[i])
			}
		}
	}
	if got, at50 := kb[1]["feed"], kb[0]["feed"]; got > 1.25*at50 {
		t.Errorf("a feed read after a comment allocates %.1f KB at 500 writes, more than 1.25 × its %.1f KB at 50", got, at50)
	}
	if ledgerMallocs[1] > ledgerMallocs[0] {
		t.Errorf("Points and Ledger make %d allocations at 500 writes and %d at 50: the ledger is copied row by row",
			ledgerMallocs[1], ledgerMallocs[0])
	}
	if st := feed.Stats(); st.Refreshes != 1 {
		t.Errorf("the feed was built %d times, want once: %+v", st.Refreshes, st)
	}
}

// allocation is what one call allocated.
type allocation struct{ bytes, mallocs uint64 }

// allocated runs fn once and returns the growth of the heap's
// cumulative allocation counters across the call.
func allocated(fn func()) allocation {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return allocation{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}
}
