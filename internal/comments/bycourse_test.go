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

// TestByCourseCountsVotesOnce pins ByCourse's order to a reference sort
// on qualities computed beforehand, and its cost to one vote probe per
// comment: what a call allocates does not grow with the comments, as it
// did while the sort's comparator probed the votes of both comments it
// compared (thousands of allocations at 64 comments).
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
	got := s.ByCourse(7)
	if len(got) != len(want) {
		t.Fatalf("ByCourse = %d comments, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.ID != want[i] {
			t.Fatalf("ByCourse[%d] = comment %d, want %d", i, c.ID, want[i])
		}
	}

	small, _ := courseWithVotes(t, 8)
	at8 := testing.AllocsPerRun(20, func() { small.ByCourse(7) })
	at64 := testing.AllocsPerRun(20, func() { s.ByCourse(7) })
	if at64 != at8 || at64 > 8 {
		t.Errorf("ByCourse allocates %.0f times at 64 comments and %.0f at 8, want the same few", at64, at8)
	}
}

// TestByCourseUnderVoteStorm runs ByCourse while votes land on the same
// comments: every answer is a permutation of the course's comments.
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
	for range 200 {
		var got []int64
		for _, c := range s.ByCourse(7) {
			got = append(got, c.ID)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			close(stop)
			wg.Wait()
			t.Fatalf("ByCourse under votes = %v, want a permutation of %v", got, want)
		}
	}
	close(stop)
	wg.Wait()
}
