// Package comments manages CourseRank's user-contributed evaluations:
// course comments (with optional ratings), standalone ratings, and the
// accuracy votes students cast on each other's comments (§2 "rank the
// accuracy of each others' comments"). Comment quality scores drive
// display order; the closed community's higher-quality contributions
// (§2.2) are measurable through them.
package comments

import (
	"fmt"
	"sort"

	"courserank/internal/relation"
)

// Comment is one course evaluation, following the paper's schema
// Comments(SuID, CourseID, Year, Term, Text, Rating, Date).
type Comment struct {
	ID       int64
	SuID     int64
	CourseID int64
	Year     int64
	Term     string
	Text     string
	Rating   float64 // 0 means unrated
	Date     string
}

// Store provides typed access to the evaluation tables.
type Store struct {
	db *relation.DB
}

// Setup creates the comment, rating and vote tables.
func Setup(db *relation.DB) (*Store, error) {
	tables := []*relation.Table{
		relation.MustTable("Comments",
			relation.NewSchema(
				relation.NotNullCol("CommentID", relation.TypeInt),
				relation.NotNullCol("SuID", relation.TypeInt),
				relation.NotNullCol("CourseID", relation.TypeInt),
				relation.NotNullCol("Year", relation.TypeInt),
				relation.NotNullCol("Term", relation.TypeString),
				relation.NotNullCol("Text", relation.TypeString),
				relation.Col("Rating", relation.TypeFloat),
				relation.Col("Date", relation.TypeString),
			), relation.WithPrimaryKey("CommentID"), relation.WithAutoIncrement("CommentID"),
			relation.WithIndex("CourseID"), relation.WithIndex("SuID"),
			// "Best rated first" feeds compile to ORDER BY Rating DESC over
			// a Rating >= ? range; the ordered index lets the SQL planner
			// answer both with one descending index walk, sort elided.
			relation.WithOrderedIndex("Rating")),
		relation.MustTable("Ratings",
			relation.NewSchema(
				relation.NotNullCol("SuID", relation.TypeInt),
				relation.NotNullCol("CourseID", relation.TypeInt),
				relation.NotNullCol("Rating", relation.TypeFloat),
			), relation.WithPrimaryKey("SuID", "CourseID"), relation.WithIndex("CourseID")),
		relation.MustTable("CommentVotes",
			relation.NewSchema(
				relation.NotNullCol("CommentID", relation.TypeInt),
				relation.NotNullCol("SuID", relation.TypeInt),
				relation.NotNullCol("Accurate", relation.TypeBool),
			), relation.WithPrimaryKey("CommentID", "SuID"), relation.WithIndex("CommentID")),
	}
	for _, t := range tables {
		if _, err := db.Ensure(t); err != nil {
			return nil, err
		}
	}
	return &Store{db: db}, nil
}

// Open wraps a database whose tables already exist.
func Open(db *relation.DB) *Store { return &Store{db: db} }

// Add stores a comment and returns its id. Ratings must be 0 (absent)
// or within [1,5].
func (s *Store) Add(c Comment) (int64, error) {
	if c.Text == "" {
		return 0, fmt.Errorf("comments: empty comment text")
	}
	if c.Rating != 0 && (c.Rating < 1 || c.Rating > 5) {
		return 0, fmt.Errorf("comments: rating %v out of range [1,5]", c.Rating)
	}
	var rating relation.Value
	if c.Rating != 0 {
		rating = c.Rating
	}
	row, err := s.db.MustTable("Comments").InsertGet(relation.Row{
		nil, c.SuID, c.CourseID, c.Year, c.Term, c.Text, rating, c.Date,
	})
	if err != nil {
		return 0, err
	}
	return row[0].(int64), nil
}

func commentFromRow(r relation.Row) Comment {
	var rating float64
	if r[6] != nil {
		rating = r[6].(float64)
	}
	var date string
	if r[7] != nil {
		date = r[7].(string)
	}
	return Comment{
		ID: r[0].(int64), SuID: r[1].(int64), CourseID: r[2].(int64),
		Year: r[3].(int64), Term: r[4].(string), Text: r[5].(string),
		Rating: rating, Date: date,
	}
}

// TopByCourse returns a course's n best comments by quality score (best
// first; ties by id for determinism) and how many comments the course
// has. Each comment's votes are counted once, so the order is
// consistent even while votes land, and only the n returned comments
// are converted from their rows.
func (s *Store) TopByCourse(courseID int64, n int) (top []Comment, total int) {
	rows := s.db.MustTable("Comments").Lookup("CourseID", courseID)
	type ranked struct {
		row relation.Row
		id  int64
		q   float64
	}
	// best holds the n best so far, best first: a binary-search
	// insertion, since n (three, on a course page) is small.
	best := make([]ranked, 0, min(n, len(rows)))
	for _, r := range rows {
		c := ranked{row: r, id: r[0].(int64)}
		c.q = s.Quality(c.id)
		at := sort.Search(len(best), func(i int) bool {
			if best[i].q != c.q {
				return best[i].q < c.q
			}
			return best[i].id > c.id
		})
		if at == n {
			continue
		}
		if len(best) < n {
			best = append(best, ranked{})
		}
		copy(best[at+1:], best[at:])
		best[at] = c
	}
	top = make([]Comment, len(best))
	for i, c := range best {
		top[i] = commentFromRow(c.row)
	}
	return top, len(rows)
}

// ByStudent returns the student's comments in insertion order.
func (s *Store) ByStudent(suID int64) []Comment {
	rows := s.db.MustTable("Comments").Lookup("SuID", suID)
	out := make([]Comment, len(rows))
	for i, r := range rows {
		out[i] = commentFromRow(r)
	}
	return out
}

// Count returns the total number of comments — the paper's "134,000
// comments".
func (s *Store) Count() int { return s.db.MustTable("Comments").Len() }

// Rate records a student's standalone rating of a course, overwriting
// any previous rating by the same student.
func (s *Store) Rate(suID, courseID int64, rating float64) error {
	if rating < 1 || rating > 5 {
		return fmt.Errorf("comments: rating %v out of range [1,5]", rating)
	}
	t := s.db.MustTable("Ratings")
	if _, exists := t.Get(suID, courseID); exists {
		return t.UpdateByKey([]relation.Value{suID, courseID},
			func(r relation.Row) relation.Row { r[2] = rating; return r })
	}
	_, err := t.Insert(relation.Row{suID, courseID, rating})
	return err
}

// RatingCount returns the number of standalone ratings — the paper's
// "over 50,300 ratings".
func (s *Store) RatingCount() int { return s.db.MustTable("Ratings").Len() }

// AvgRating returns the mean standalone rating of a course and the
// number of raters.
func (s *Store) AvgRating(courseID int64) (float64, int) {
	sum, n := 0.0, 0
	s.db.MustTable("Ratings").Each("CourseID", courseID, func(r relation.Row) {
		sum += r[2].(float64)
		n++
	})
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// VoteAccuracy records one student's accuracy judgment of a comment,
// overwriting their previous vote.
func (s *Store) VoteAccuracy(commentID, voterID int64, accurate bool) error {
	if _, ok := s.db.MustTable("Comments").Get(commentID); !ok {
		return fmt.Errorf("comments: no comment %d", commentID)
	}
	t := s.db.MustTable("CommentVotes")
	if _, exists := t.Get(commentID, voterID); exists {
		return t.UpdateByKey([]relation.Value{commentID, voterID},
			func(r relation.Row) relation.Row { r[2] = accurate; return r })
	}
	_, err := t.Insert(relation.Row{commentID, voterID, accurate})
	return err
}

// Votes returns a comment's (accurate, inaccurate) vote counts.
func (s *Store) Votes(commentID int64) (accurate, inaccurate int) {
	s.db.MustTable("CommentVotes").Each("CommentID", commentID, func(r relation.Row) {
		if r[2].(bool) {
			accurate++
		} else {
			inaccurate++
		}
	})
	return accurate, inaccurate
}

// Quality scores a comment in [0,1] by a Laplace-smoothed accuracy
// ratio: (accurate+1) / (accurate+inaccurate+2). Unvoted comments sit
// at the 0.5 prior.
func (s *Store) Quality(commentID int64) float64 {
	acc, inacc := s.Votes(commentID)
	return float64(acc+1) / float64(acc+inacc+2)
}
