package comments

import (
	"slices"
	"sort"
	"sync"
	"testing"
)

// courseWithVotes adds n comments to course 7, plus two to course 8,
// and votes on course 7's: comment i gets i%5 accurate and i%3
// inaccurate votes, so qualities tie and differ.
func courseWithVotes(t *testing.T, n int) (*Store, []int64) {
	t.Helper()
	s := newStore(t)
	var ids []int64
	for i := range n + 2 {
		course := int64(7)
		if i >= n {
			course = 8
		}
		id, err := s.Add(Comment{SuID: int64(100 + i), CourseID: course, Year: 2008, Term: "Autumn", Text: "comment"})
		if err != nil {
			t.Fatal(err)
		}
		if course == 7 {
			ids = append(ids, id)
		}
	}
	for i, id := range ids {
		voter := int64(1000)
		for range i % 5 {
			if err := s.VoteAccuracy(id, voter, true); err != nil {
				t.Fatal(err)
			}
			voter++
		}
		for range i % 3 {
			if err := s.VoteAccuracy(id, voter, false); err != nil {
				t.Fatal(err)
			}
			voter++
		}
	}
	return s, ids
}

// TestByCourseCountsVotesOnce pins TopByCourse's selection to the first
// n of a reference sort on qualities computed beforehand, for every n,
// with the course's total beside it, and its cost to one vote probe per
// comment: how many allocations a call makes does not grow with the
// comments, as it did while a sort's comparator probed the votes of both
// comments it compared (thousands of allocations at 64 comments).
func TestByCourseCountsVotesOnce(t *testing.T) {
	s, ids := courseWithVotes(t, 64)
	q := map[int64]float64{}
	for _, id := range ids {
		q[id] = s.Quality(id)
	}
	want := slices.Clone(ids)
	sort.SliceStable(want, func(a, b int) bool {
		if q[want[a]] != q[want[b]] {
			return q[want[a]] > q[want[b]]
		}
		return want[a] < want[b]
	})
	for _, n := range []int{0, 1, 3, 10, 63, 64, 100} {
		got, total := s.TopByCourse(7, n)
		if total != len(ids) {
			t.Fatalf("TopByCourse(7, %d) total = %d, want %d", n, total, len(ids))
		}
		if len(got) != min(n, len(want)) {
			t.Fatalf("TopByCourse(7, %d) = %d comments, want %d", n, len(got), min(n, len(want)))
		}
		for i, c := range got {
			if c.ID != want[i] {
				t.Fatalf("TopByCourse(7, %d)[%d] = comment %d, want %d", n, i, c.ID, want[i])
			}
			if c.CourseID != 7 || c.Text != "comment" {
				t.Fatalf("TopByCourse(7, %d)[%d] = %+v, not the stored comment", n, i, c)
			}
		}
	}

	small, _ := courseWithVotes(t, 8)
	at8 := testing.AllocsPerRun(20, func() { small.TopByCourse(7, 3) })
	at64 := testing.AllocsPerRun(20, func() { s.TopByCourse(7, 3) })
	if at64 != at8 || at64 > 8 {
		t.Errorf("TopByCourse allocates %.0f times at 64 comments and %.0f at 8, want the same few", at64, at8)
	}
}

// TestByCourseUnderVoteStorm runs TopByCourse while votes land on the
// same comments: asked for every comment, each answer is a permutation
// of the course's comments, and asked for three, three distinct ones of
// them beside the full count.
func TestByCourseUnderVoteStorm(t *testing.T) {
	s, ids := courseWithVotes(t, 64)
	want := slices.Clone(ids)
	slices.Sort(want)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(i*7+w)%len(ids)]
				if err := s.VoteAccuracy(id, int64(5000+i%50), (i+w)%3 != 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	fail := func(format string, args ...any) {
		close(stop)
		wg.Wait()
		t.Fatalf(format, args...)
	}
	for range 200 {
		all, total := s.TopByCourse(7, len(ids))
		var got []int64
		for _, c := range all {
			got = append(got, c.ID)
		}
		slices.Sort(got)
		if total != len(ids) || !slices.Equal(got, want) {
			fail("TopByCourse under votes = %v of %d, want a permutation of %v", got, total, want)
		}
		top, total := s.TopByCourse(7, 3)
		var got3 []int64
		for _, c := range top {
			got3 = append(got3, c.ID)
		}
		slices.Sort(got3)
		if total != len(ids) || len(slices.Compact(got3)) != 3 {
			fail("TopByCourse(7, 3) under votes = %v of %d, want three distinct comments of %d", got3, total, len(ids))
		}
		for _, id := range got3 {
			if _, ok := slices.BinarySearch(want, id); !ok {
				fail("TopByCourse(7, 3) under votes returned comment %d, not one of course 7's", id)
			}
		}
	}
	close(stop)
	wg.Wait()
}
