package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"courserank/internal/catalog"
	"courserank/internal/relation"
)

func TestEnrollCommentRate(t *testing.T) {
	s := seedSite(t)
	defer s.Close()
	course := s.Catalog.CoursesByDept("CS")[0].ID

	id, err := s.EnrollCommentRate(Review{
		SuID: 444, CourseID: course, Year: 2008, Term: catalog.Autumn,
		Grade: "A", Text: "great intro", Rating: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("no comment id")
	}
	entries := s.Planner.Entries(444)
	if len(entries) != 1 || entries[0].CourseID != course || entries[0].Grade != "A" {
		t.Fatalf("enrollment = %+v", entries)
	}
	found := false
	all, _ := s.Comments.TopByCourse(course, math.MaxInt)
	for _, c := range all {
		if c.ID == id && c.Text == "great intro" {
			found = true
		}
	}
	if !found {
		t.Fatal("comment missing")
	}
	if avg, n := s.Comments.AvgRating(course); n != 1 || avg != 5 {
		t.Fatalf("rating = %v (%d)", avg, n)
	}

	// A duplicate submission leaves nothing behind.
	before := s.Comments.Count()
	if _, err := s.EnrollCommentRate(Review{
		SuID: 444, CourseID: course, Year: 2008, Term: catalog.Autumn,
		Text: "again", Rating: 4,
	}); err == nil {
		t.Fatal("duplicate enrollment accepted")
	}
	if s.Comments.Count() != before {
		t.Fatal("failed workflow leaked a comment")
	}
	if avg, _ := s.Comments.AvgRating(course); avg != 5 {
		t.Fatalf("failed workflow touched the rating: %v", avg)
	}

	// Validation failures reject before writing anything.
	if _, err := s.EnrollCommentRate(Review{SuID: 445, CourseID: course, Year: 2008, Term: catalog.Autumn, Text: "x", Rating: 9}); err == nil {
		t.Fatal("out-of-range rating accepted")
	}
	if _, err := s.EnrollCommentRate(Review{SuID: 445, CourseID: 999, Year: 2008, Term: catalog.Autumn, Text: "x", Rating: 3}); err == nil {
		t.Fatal("unknown course accepted")
	}
	if len(s.Planner.Entries(445)) != 0 {
		t.Fatal("rejected workflow wrote an enrollment")
	}
}

// TestEnrollCommentRateAtomic is the workflow atomicity property test:
// concurrent readers poll mid-transaction, each reading the three
// tables in one read-only transaction and committing it. A committed
// read set must be all-or-nothing — an enrollment implies its comment
// and its rating. A read set whose Commit is refused (a review landed
// between its scans) may be torn and is retried instead.
func TestEnrollCommentRateAtomic(t *testing.T) {
	s := seedSite(t)
	defer s.Close()
	course := s.Catalog.CoursesByDept("CS")[0].ID
	enroll := s.DB.MustTable("Enrollments")
	commentsT := s.DB.MustTable("Comments")
	ratings := s.DB.MustTable("Ratings")

	const writers, perWriter = 4, 25
	stop := make(chan struct{})
	var torn, checked atomic.Int64
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Only the storm's students (SuID >= 1000) are under
				// test; seedSite's fixtures predate the workflow.
				students := func(tx *relation.Tx, tbl *relation.Table, col int) map[int64]bool {
					out := map[int64]bool{}
					tx.Scan(tbl, func(r relation.Row) bool {
						if su := r[col].(int64); su >= 1000 {
							out[su] = true
						}
						return true
					})
					return out
				}
				tx := s.DB.Begin()
				seen := students(tx, enroll, 0)
				commented := students(tx, commentsT, 1)
				rated := students(tx, ratings, 0)
				if err := tx.Commit(); errors.Is(err, relation.ErrTxConflict) {
					continue
				} else if err != nil {
					t.Error(err)
					return
				}
				checked.Add(1)
				for su := range seen {
					if !commented[su] || !rated[su] {
						torn.Add(1)
					}
				}
				for su := range commented {
					if !seen[su] {
						torn.Add(1)
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				su := int64(1000 + w*perWriter + i)
				_, err := s.EnrollCommentRate(Review{
					SuID: su, CourseID: course, Year: 2008, Term: catalog.Autumn,
					Text: fmt.Sprintf("review by %d", su), Rating: float64(1 + i%5),
				})
				if err != nil && !errors.Is(err, relation.ErrTxConflict) {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d torn (partial-workflow) observations in committed read sets", torn.Load())
	}
	if checked.Load() == 0 {
		t.Fatal("no reader committed a read set")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d unexpected workflow failures", failures.Load())
	}
	if _, n := s.Comments.TopByCourse(course, 0); n != writers*perWriter {
		t.Fatalf("committed %d comments, want %d", n, writers*perWriter)
	}
	if st := s.DB.TxStats(); st.Active != 0 {
		t.Fatalf("Active = %d after the storm", st.Active)
	}
}
