package comments

import (
	"testing"

	"courserank/internal/relation"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Setup(relation.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAddAndFetch(t *testing.T) {
	s := newStore(t)
	id, err := s.Add(Comment{SuID: 444, CourseID: 1, Year: 2008, Term: "Autumn", Text: "great intro course", Rating: 5, Date: "2008-10-01"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("id = %d", id)
	}
	if _, err := s.Add(Comment{SuID: 444, CourseID: 1, Year: 2008, Term: "Aut", Text: ""}); err == nil {
		t.Error("empty text should fail")
	}
	if _, err := s.Add(Comment{SuID: 444, CourseID: 1, Year: 2008, Term: "Aut", Text: "x", Rating: 6}); err == nil {
		t.Error("rating 6 should fail")
	}
	if _, err := s.Add(Comment{SuID: 444, CourseID: 1, Year: 2008, Term: "Aut", Text: "unrated comment"}); err != nil {
		t.Errorf("rating 0 means unrated: %v", err)
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	by := s.ByStudent(444)
	if len(by) != 2 {
		t.Errorf("ByStudent = %d", len(by))
	}
	if by[0].Rating != 5 || by[1].Rating != 0 {
		t.Errorf("ratings = %v, %v", by[0].Rating, by[1].Rating)
	}
}

func TestRatingsUpsertAndAvg(t *testing.T) {
	s := newStore(t)
	if err := s.Rate(1, 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Rate(2, 10, 2); err != nil {
		t.Fatal(err)
	}
	if avg, n := s.AvgRating(10); n != 2 || avg != 3 {
		t.Errorf("avg = %v, n = %d", avg, n)
	}
	// Re-rating replaces, not duplicates.
	if err := s.Rate(1, 10, 5); err != nil {
		t.Fatal(err)
	}
	if avg, n := s.AvgRating(10); n != 2 || avg != 3.5 {
		t.Errorf("after upsert: avg = %v, n = %d", avg, n)
	}
	if s.RatingCount() != 2 {
		t.Errorf("RatingCount = %d", s.RatingCount())
	}
	if err := s.Rate(1, 10, 0); err == nil {
		t.Error("rating 0 should fail")
	}
	if avg, n := s.AvgRating(99); avg != 0 || n != 0 {
		t.Error("unrated course")
	}
}

func TestAccuracyVotesAndQuality(t *testing.T) {
	s := newStore(t)
	id, _ := s.Add(Comment{SuID: 1, CourseID: 5, Year: 2008, Term: "Aut", Text: "solid"})
	// Unvoted comments sit at the 0.5 prior.
	if q := s.Quality(id); q != 0.5 {
		t.Errorf("prior quality = %v", q)
	}
	if err := s.VoteAccuracy(id, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := s.VoteAccuracy(id, 3, true); err != nil {
		t.Fatal(err)
	}
	if err := s.VoteAccuracy(id, 4, false); err != nil {
		t.Fatal(err)
	}
	acc, inacc := s.Votes(id)
	if acc != 2 || inacc != 1 {
		t.Errorf("votes = %d, %d", acc, inacc)
	}
	if q := s.Quality(id); q != 3.0/5.0 {
		t.Errorf("quality = %v", q)
	}
	// Changing one's vote replaces it.
	if err := s.VoteAccuracy(id, 4, true); err != nil {
		t.Fatal(err)
	}
	acc, inacc = s.Votes(id)
	if acc != 3 || inacc != 0 {
		t.Errorf("after vote change: %d, %d", acc, inacc)
	}
	if err := s.VoteAccuracy(999, 1, true); err == nil {
		t.Error("vote on missing comment should fail")
	}
}

func TestByCourseOrdersByQuality(t *testing.T) {
	s := newStore(t)
	low, _ := s.Add(Comment{SuID: 1, CourseID: 7, Year: 2008, Term: "Aut", Text: "bad info"})
	high, _ := s.Add(Comment{SuID: 2, CourseID: 7, Year: 2008, Term: "Aut", Text: "accurate info"})
	s.VoteAccuracy(low, 3, false)
	s.VoteAccuracy(high, 3, true)
	s.VoteAccuracy(high, 4, true)
	got, total := s.TopByCourse(7, 3)
	if total != 2 || len(got) != 2 || got[0].ID != high || got[1].ID != low {
		t.Errorf("order = %v of %d", got, total)
	}
	if got, total := s.TopByCourse(7, 1); total != 2 || len(got) != 1 || got[0].ID != high {
		t.Errorf("top 1 = %v of %d", got, total)
	}
	if got, total := s.TopByCourse(999, 3); len(got) != 0 || total != 0 {
		t.Error("missing course should be empty")
	}
}
