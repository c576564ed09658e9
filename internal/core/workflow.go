package core

import (
	"fmt"

	"courserank/internal/catalog"
	"courserank/internal/relation"
)

// Review is the input to the EnrollCommentRate workflow: one student's
// complete evaluation of one course — the enrollment record, the
// written comment and the standalone rating the paper's evaluation
// pages collect together (§2.1).
type Review struct {
	SuID     int64
	CourseID int64
	Year     int64
	Term     catalog.Term
	Grade    catalog.Grade // "" when ungraded
	Text     string
	Rating   float64
	Date     string // optional display date for the comment
}

// EnrollCommentRate records a course evaluation atomically: the
// enrollment, the comment and the standalone rating commit together or
// not at all, in one serializable relation.Tx. What a reader sees
// depends on how it reads:
//   - a read of one table sees all of the review's row in it or none;
//   - a relation.Tx that reads several tables and commits saw the whole
//     review or none of it, because its Commit fails if any of those
//     reads changed;
//   - autocommit reads of two tables are two reads: Commit applies the
//     three tables under all three locks, so either read sees the
//     review's row or not, but a reader that finishes one table before
//     the commit and starts the next after it can see half a review.
//     The feed and ε matviews follow each table separately and catch
//     up on the next delivery.
//
// The transaction reads the student's enrollments and the rating's key.
// If either changes before Commit — another enrollment of the same
// student, or a concurrent rating of the same course — it fails with
// relation.ErrTxConflict, nothing applied, and the caller can retry.
func (s *Site) EnrollCommentRate(rv Review) (commentID int64, err error) {
	if _, ok := s.Catalog.Course(rv.CourseID); !ok {
		return 0, fmt.Errorf("core: unknown course %d", rv.CourseID)
	}
	if catalog.TermIndex(rv.Term) < 0 {
		return 0, fmt.Errorf("core: unknown term %q", rv.Term)
	}
	if rv.Grade != "" && !rv.Grade.Valid() {
		return 0, fmt.Errorf("core: unknown grade %q", rv.Grade)
	}
	if rv.Text == "" {
		return 0, fmt.Errorf("core: empty comment text")
	}
	if rv.Rating < 1 || rv.Rating > 5 {
		return 0, fmt.Errorf("core: rating %v out of range [1,5]", rv.Rating)
	}

	enroll := s.DB.MustTable("Enrollments")
	comments := s.DB.MustTable("Comments")
	ratings := s.DB.MustTable("Ratings")

	tx := s.DB.Begin()
	defer func() {
		if err != nil {
			tx.Rollback()
		}
	}()

	// Duplicate-enrollment check inside the transaction: it sees the
	// committed entries, and Commit re-runs the lookup, so two racing
	// submissions cannot both slip past it.
	for _, r := range tx.Lookup(enroll, "SuID", rv.SuID) {
		if r[1] == rv.CourseID && r[2] == rv.Year && r[3] == string(rv.Term) {
			return 0, fmt.Errorf("core: duplicate enrollment for course %d in %s %d", rv.CourseID, rv.Term, rv.Year)
		}
	}
	var grade relation.Value
	if rv.Grade != "" {
		grade = string(rv.Grade)
	}
	if _, err = tx.Insert(enroll, relation.Row{rv.SuID, rv.CourseID, rv.Year, string(rv.Term), grade, false}); err != nil {
		return 0, err
	}

	var date relation.Value
	if rv.Date != "" {
		date = rv.Date
	}
	crow, err := tx.Insert(comments, relation.Row{
		nil, rv.SuID, rv.CourseID, rv.Year, string(rv.Term), rv.Text, rv.Rating, date,
	})
	if err != nil {
		return 0, err
	}
	commentID = crow[0].(int64)

	// Standalone rating upsert, mirroring comments.Store.Rate; both
	// branches read the rating by key only.
	if _, exists := tx.Get(ratings, rv.SuID, rv.CourseID); exists {
		if err = tx.UpdateByKey(ratings, []relation.Value{rv.SuID, rv.CourseID}, func(r relation.Row) relation.Row {
			r[2] = rv.Rating
			return r
		}); err != nil {
			return 0, err
		}
	} else if _, err = tx.Insert(ratings, relation.Row{rv.SuID, rv.CourseID, rv.Rating}); err != nil {
		return 0, err
	}

	if err = tx.Commit(); err != nil {
		return 0, err
	}
	return commentID, nil
}
