package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"courserank/internal/matview"
	"courserank/internal/relation"
)

// FeedViewName is the registry key of the site's top-rated-per-
// department feed — the maintained view every feed-style request reads.
const FeedViewName = "core/top-rated-by-dept"

// FeedEntry is one course in a department's top-rated feed.
type FeedEntry struct {
	CourseID int64   `json:"courseId"`
	Title    string  `json:"title"`
	Avg      float64 `json:"avg"`
	Raters   int64   `json:"raters"`
}

// feedTopPerDept caps how many courses of a department a reader sees.
// The view itself keeps every rated course, so a course leaving the top
// is replaced by the next one without a rebuild.
const feedTopPerDept = 20

// The feed's two statements. Build joins every comment to its course
// and aggregates per course. The patch reads one course's average and
// rater count through the Comments(CourseID) index, without a join: the
// engine folds each probed comment into AVG and COUNT as the index hands
// it over, so the read allocates the same however many comments the
// course has. It takes the department and title from the catalog.
// Either way a course's comments reach AVG in slot order, so a patched
// average equals a built one bit for bit.
const (
	feedBuildSQL = `SELECT c.DepID, c.CourseID, c.Title, AVG(m.Rating), COUNT(m.Rating)
		FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID
		GROUP BY c.DepID, c.CourseID, c.Title`
	feedPatchSQL = `SELECT AVG(Rating), COUNT(Rating) FROM Comments WHERE CourseID = ?`
)

// registerFeedViews installs the site's precomputed feed views — the
// paper's "expensive aggregation served at interactive latency"
// pattern. The top-rated feed is MAINTAINED: its view keys are course
// ids, a committed Comments change names the course (or the two) it
// touches, and the next read re-aggregates those courses and re-ranks
// their departments instead of re-joining every comment. It reads the
// base tables on mono and sharded sites alike — the base holds every
// row and is what the view fingerprints. A Courses change can move a
// title or a department under any entry, so it answers "cannot tell"
// and the next read rebuilds.
func (s *Site) registerFeedViews() error {
	course := s.DB.MustTable("Comments").Schema().MustIndex("CourseID")
	_, err := s.Views.Register(matview.Options{
		Name:  FeedViewName,
		Deps:  []string{"Comments", "Courses"},
		Build: func() (any, error) { return s.buildTopRatedFeed() },
		Keys: func(dep string, _ relation.MutKind, before, after relation.Row) ([]any, bool) {
			if dep != "Comments" {
				return nil, false
			}
			var keys []any
			if before != nil {
				keys = append(keys, before[course])
			}
			if after != nil && (before == nil || after[course] != before[course]) {
				keys = append(keys, after[course])
			}
			return keys, true
		},
		Patch: func(prev any, keys []any) (any, error) {
			return s.patchTopRatedFeed(prev.(map[string][]FeedEntry), keys)
		},
	})
	return err
}

// feedEntries runs the build statement and hands each rated course to
// add.
func (s *Site) feedEntries(add func(dep string, e FeedEntry)) error {
	rows, err := s.SQL.QueryRows(feedBuildSQL)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		var dep string
		var e FeedEntry
		var avg any
		if err := rows.Scan(&dep, &e.CourseID, &e.Title, &avg, &e.Raters); err != nil {
			return err
		}
		if feedRated(&e, avg) {
			add(dep, e)
		}
	}
	return rows.Err()
}

// feedRated sets e's average from an AVG cell and reports whether the
// course belongs in the feed: a course whose comments carry no ratings
// does not.
func feedRated(e *FeedEntry, avg any) bool {
	x, ok := avg.(float64)
	if !ok || e.Raters == 0 {
		return false
	}
	e.Avg = x
	return true
}

// feedBefore is the feed's order: average rating descending, course id
// as the tiebreak.
func feedBefore(a, b FeedEntry) bool {
	if a.Avg != b.Avg {
		return a.Avg > b.Avg
	}
	return a.CourseID < b.CourseID
}

// buildTopRatedFeed computes the whole feed in one aggregation pass:
// every rated course, grouped into departments, each list best-first.
func (s *Site) buildTopRatedFeed() (map[string][]FeedEntry, error) {
	out := map[string][]FeedEntry{}
	err := s.feedEntries(func(dep string, e FeedEntry) {
		out[dep] = append(out[dep], e)
	})
	if err != nil {
		return nil, err
	}
	for _, list := range out {
		sort.Slice(list, func(a, b int) bool { return feedBefore(list[a], list[b]) })
	}
	return out, nil
}

// patchTopRatedFeed returns prev with the given courses recomputed: each
// is re-aggregated from its comments and put back in place in a copy of
// its department's list — or taken out of the feed when no rated
// comment of it is left. Recomputing the group rather than adjusting
// running sums makes the result exactly what Build would return. The
// department and title come from the catalog: a Courses change rebuilds
// the view, so the catalog agrees with what the build joined.
func (s *Site) patchTopRatedFeed(prev map[string][]FeedEntry, keys []any) (map[string][]FeedEntry, error) {
	next := maps.Clone(prev)
	for _, key := range keys {
		course, ok := s.Catalog.Course(key.(int64))
		if !ok {
			continue // the build's join drops a comment on no course
		}
		entry := FeedEntry{CourseID: course.ID, Title: course.Title}
		res, err := s.SQL.Query(feedPatchSQL, course.ID)
		if err != nil {
			return nil, err
		}
		entry.Raters = res.Rows[0][1].(int64)
		rated := feedRated(&entry, res.Rows[0][0])
		old := next[course.DepID]
		list := make([]FeedEntry, 0, len(old)+1)
		for _, e := range old {
			if e.CourseID != course.ID {
				list = append(list, e)
			}
		}
		if rated {
			at := sort.Search(len(list), func(i int) bool { return feedBefore(entry, list[i]) })
			list = slices.Insert(list, at, entry)
		}
		if len(list) == 0 {
			delete(next, course.DepID)
		} else {
			next[course.DepID] = list
		}
	}
	return next, nil
}

// TopRatedFeed returns one department's top-rated courses (at most k)
// from the materialized feed view, reflecting every comment committed
// before the call. The serve report says whether the request hit the
// snapshot (brought current from the change log if need be) or paid for
// a rebuild.
func (s *Site) TopRatedFeed(dep string, k int) ([]FeedEntry, matview.Serve, error) {
	v, ok := s.Views.View(FeedViewName)
	if !ok {
		return nil, matview.Serve{}, fmt.Errorf("core: feed view %q not registered", FeedViewName)
	}
	val, serve, err := v.Get()
	if err != nil {
		return nil, serve, err
	}
	list := val.(map[string][]FeedEntry)[dep]
	if k <= 0 || k > feedTopPerDept {
		k = feedTopPerDept
	}
	if len(list) > k {
		list = list[:k]
	}
	// The snapshot is shared and immutable; the truncation above only
	// re-slices, so handing the slice out is safe as long as callers
	// treat it as read-only (they do: it renders straight to JSON).
	return list, serve, nil
}
