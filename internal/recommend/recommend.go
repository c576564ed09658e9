// Package recommend implements the classical, hard-coded recommenders
// that FlexRecs is contrasted against in §3.2: "the recommendation
// algorithm is typically embedded in the system code ... it is hard to
// modify the algorithm, or to experiment with different approaches."
// These baselines (popularity and user-user CF) produce the same
// mathematical results as the corresponding FlexRecs workflows — the A1
// ablation measures what the declarative layer costs and the
// cross-check test confirms the rankings agree.
package recommend

import (
	"slices"
	"sync"

	"courserank/internal/flexrecs"
	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// Scored pairs an item with a recommendation score.
type Scored struct {
	ID    int64
	Score float64
}

// byScore sorts best-first with id tie-breaks, matching FlexRecs'
// deterministic ordering.
func byScore(s []Scored) {
	slices.SortStableFunc(s, func(a, b Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// RatingsViewName is the registry key of the per-student rating-vector
// view every collaborative recommender reads.
const RatingsViewName = "recommend/ratings-by-student"

// Engine computes recommendations directly against the store. The
// full-table rating aggregation is a matview materialized view keyed on
// the Comments table's fingerprint, so concurrent cold reads
// single-flight into one build and warm reads are an atomic snapshot
// load.
type Engine struct {
	db  *relation.DB
	sql *sqlmini.Engine

	mu          sync.Mutex
	views       *matview.Registry // lazily private unless UseViews supplied one
	ratingsView *matview.View     // resolved once per registry
}

// New returns a baseline engine over the database with its own SQL
// engine (and plan cache).
func New(db *relation.DB) *Engine { return NewOver(db, sqlmini.New(db)) }

// NewOver returns a baseline engine executing through an existing SQL
// engine, sharing its plan cache with the other subsystems over the
// same database. Without UseViews the engine lazily creates a private
// view registry on first use.
func NewOver(db *relation.DB, sql *sqlmini.Engine) *Engine {
	return &Engine{db: db, sql: sql}
}

// UseViews routes the engine's materialized views through reg — the
// Site facade wiring, so the ratings view shows up beside the feed
// views in /api/views.
func (e *Engine) UseViews(reg *matview.Registry) {
	e.mu.Lock()
	e.views = reg
	e.ratingsView = nil // re-resolve against the new registry
	e.mu.Unlock()
}

// registry returns the wired registry, creating a private one on first
// use for engines running outside the Site facade. Caller holds e.mu.
func (e *Engine) registry() *matview.Registry {
	if e.views == nil {
		e.views = matview.NewRegistry(e.db)
	}
	return e.views
}

// ratingsBySuID returns every student's rating vector from the Comments
// table (SuID, CourseID, Rating), skipping unrated comments, served
// from the materialized view: warm reads are an atomic snapshot load,
// cold and invalidated reads single-flight into one rebuild no matter
// how many requests arrive at once. Callers must treat the returned
// vectors as read-only.
func (e *Engine) ratingsBySuID() map[int64]flexrecs.Vector {
	e.mu.Lock()
	v := e.ratingsView
	if v == nil {
		var err error
		v, err = e.registry().GetOrRegister(matview.Options{
			Name:  RatingsViewName,
			Deps:  []string{"Comments"},
			Build: func() (any, error) { return e.buildRatings() },
		})
		if err != nil {
			e.mu.Unlock()
			return map[int64]flexrecs.Vector{}
		}
		e.ratingsView = v
	}
	e.mu.Unlock()
	val, _, err := v.Get()
	if err != nil {
		return map[int64]flexrecs.Vector{}
	}
	return val.(map[int64]flexrecs.Vector)
}

// buildRatings computes one ratings snapshot through a prepared Rows
// cursor. A missing Comments table yields an empty map (the view's
// fingerprint records the absence, so creating the table invalidates).
func (e *Engine) buildRatings() (map[int64]flexrecs.Vector, error) {
	out := map[int64]flexrecs.Vector{}
	if _, ok := e.db.Table("Comments"); !ok {
		return out, nil
	}
	// Prepare per build: the shared plan cache makes this one text-keyed
	// lookup, and a build is a full-table aggregation anyway.
	st, err := e.sql.Prepare(`SELECT SuID, CourseID, Rating FROM Comments`)
	if err != nil {
		return nil, err
	}
	rows, err := st.QueryRows()
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	// Each student's entries arrive in table order; NewVector sorts them
	// by course and keeps a repeated course's last rating.
	entries := map[int64][]flexrecs.Entry{}
	for rows.Next() {
		var sid int64
		var cid, rating any
		if err := rows.Scan(&sid, &cid, &rating); err != nil {
			return nil, err
		}
		var val float64
		switch x := rating.(type) {
		case float64:
			val = x
		case int64:
			val = float64(x)
		default: // NULL: unrated comment
			continue
		}
		entries[sid] = append(entries[sid], flexrecs.Entry{Key: cid, Value: val})
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	for sid, es := range entries {
		out[sid] = flexrecs.NewVector(es)
	}
	return out, nil
}

// Popularity ranks courses by mean rating, requiring at least minRaters
// ratings (damping single-rater courses out).
func (e *Engine) Popularity(minRaters, k int) []Scored {
	sums := map[int64]float64{}
	counts := map[int64]int{}
	for _, vec := range e.ratingsBySuID() {
		for _, en := range vec {
			id := en.Key.(int64)
			sums[id] += en.Value
			counts[id]++
		}
	}
	var out []Scored
	for id, sum := range sums {
		if counts[id] >= minRaters {
			out = append(out, Scored{ID: id, Score: sum / float64(counts[id])})
		}
	}
	byScore(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// similarFrom ranks other students by inverse Euclidean distance of
// rating vectors to suID — the hard-coded equivalent of the lower
// recommend operator in Figure 5(b).
func similarFrom(vecs map[int64]flexrecs.Vector, suID int64, k int) []Scored {
	target, ok := vecs[suID]
	if !ok {
		return nil
	}
	var out []Scored
	for sid, v := range vecs {
		if sid == suID {
			continue
		}
		out = append(out, Scored{ID: sid, Score: flexrecs.InvEuclidean(target, v)})
	}
	byScore(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// UserUserCF predicts course scores for a student as the
// similarity-weighted average of the k most similar students' ratings —
// the hard-coded equivalent of the full Figure 5(b) workflow. Courses
// the student already rated are excluded when excludeRated is set.
func (e *Engine) UserUserCF(suID int64, neighbors, k int, excludeRated bool) []Scored {
	vecs := e.ratingsBySuID()
	target := vecs[suID]
	sims := similarFrom(vecs, suID, neighbors)
	num := map[int64]float64{}
	den := map[int64]float64{}
	for _, s := range sims {
		if s.Score <= 0 {
			continue
		}
		for _, en := range vecs[s.ID] {
			id := en.Key.(int64)
			num[id] += s.Score * en.Value
			den[id] += s.Score
		}
	}
	var out []Scored
	for id, n := range num {
		if excludeRated && target != nil {
			if _, rated := target.At(id); rated {
				continue
			}
		}
		out = append(out, Scored{ID: id, Score: n / den[id]})
	}
	byScore(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
