package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"courserank/internal/catalog"
	"courserank/internal/comments"
	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/wal"
)

// feedSite is a site of two departments: CS with feedTopPerDept+3
// courses, of which the first feedTopPerDept-1 start with one rated
// comment, and HISTORY with two courses, one rated. It returns the
// course ids per department.
func feedSite(t *testing.T, s *Site) (cs, hist []int64) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Catalog.AddDepartment(catalog.Department{ID: "CS", Name: "Computer Science", School: "Engineering"}))
	must(s.Catalog.AddDepartment(catalog.Department{ID: "HISTORY", Name: "History", School: "H&S"}))
	for i := 0; i < feedTopPerDept+3; i++ {
		id, err := s.Catalog.AddCourse(catalog.Course{DepID: "CS", Number: fmt.Sprint(100 + i), Title: fmt.Sprintf("Systems %d", i), Units: 3})
		must(err)
		cs = append(cs, id)
	}
	for i := 0; i < 2; i++ {
		id, err := s.Catalog.AddCourse(catalog.Course{DepID: "HISTORY", Number: fmt.Sprint(1 + i), Title: fmt.Sprintf("Survey %d", i), Units: 3})
		must(err)
		hist = append(hist, id)
	}
	for i, id := range cs[:feedTopPerDept-1] {
		_, err := s.Comments.Add(comments.Comment{SuID: int64(1 + i%7), CourseID: id, Year: 2008, Term: "Autumn", Text: "seed", Rating: float64(1 + i%5)})
		must(err)
	}
	_, err := s.Comments.Add(comments.Comment{SuID: 3, CourseID: hist[0], Year: 2008, Term: "Winter", Text: "seed", Rating: 4})
	must(err)
	must(s.RefreshDerived())
	return cs, hist
}

// feedOracle compares the maintained feed with a fresh Build after each
// step of a script and accounts for every full build.
type feedOracle struct {
	t       *testing.T
	s       *Site
	v       *matview.View
	rebuilt uint64 // full builds the script has named so far
}

// check reads the view and requires exactly what Build returns now. With
// rebuild set the step is one the view cannot maintain through — the
// read may ride the bounded-stale snapshot while the refresher pool
// rebuilds, so it polls until the view is current — and one more full
// build is due; otherwise Refreshes must not have moved.
func (o *feedOracle) check(step string, rebuild bool) {
	o.t.Helper()
	if rebuild {
		o.rebuilt++
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		val, serve, err := o.v.Get()
		if err != nil {
			o.t.Fatalf("%s: %v", step, err)
		}
		if rebuild && serve.Kind == matview.ServeStale && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			continue
		}
		want, err := o.s.buildTopRatedFeed()
		if err != nil {
			o.t.Fatalf("%s: %v", step, err)
		}
		if !reflect.DeepEqual(val, want) {
			o.t.Fatalf("%s: maintained feed differs from a fresh build (served %v)\n got %v\nwant %v", step, serve.Kind, val, want)
		}
		if !rebuild && serve.Kind == matview.ServeBuilt {
			o.t.Fatalf("%s: the read paid for a build", step)
		}
		break
	}
	if got := o.v.Stats().Refreshes; got != o.rebuilt {
		o.t.Fatalf("%s: %d full builds, want %d", step, got, o.rebuilt)
	}
}

func runFeedScript(t *testing.T, s *Site) {
	cs, hist := feedSite(t, s)
	tbl := s.DB.MustTable("Comments")
	sch := tbl.Schema()
	colID, colCourse, colRating, colText := sch.MustIndex("CommentID"), sch.MustIndex("CourseID"), sch.MustIndex("Rating"), sch.MustIndex("Text")
	v, ok := s.Views.View(FeedViewName)
	if !ok {
		t.Fatal("feed view not registered")
	}
	o := &feedOracle{t: t, s: s, v: v}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add := func(su, course int64, rating float64) int64 {
		t.Helper()
		id, err := s.Comments.Add(comments.Comment{SuID: su, CourseID: course, Year: 2009, Term: "Spring", Text: "scripted", Rating: rating})
		must(err)
		return id
	}
	set := func(id int64, col int, val relation.Value) {
		t.Helper()
		must(tbl.UpdateByKey([]relation.Value{id}, func(r relation.Row) relation.Row { r[col] = val; return r }))
	}
	del := func(id int64) {
		t.Helper()
		n, err := tbl.DeleteWhere(func(r relation.Row) bool { return r[colID] == id })
		if err != nil || n != 1 {
			t.Fatalf("delete of comment %d removed %d rows: %v", id, n, err)
		}
	}

	o.check("cold build", true)
	if d := len(o.deps("CS")); d != feedTopPerDept-1 {
		t.Fatalf("CS starts with %d rated courses, want %d", d, feedTopPerDept-1)
	}

	a := add(11, cs[0], 5)
	o.check("rated insert", false)
	add(12, cs[0], 0)
	o.check("unrated insert", false)
	set(a, colRating, 3.7)
	o.check("rating update to a fractional value", false)
	b := add(13, cs[1], 2.3)
	o.check("second fractional rating on another course", false)
	set(b, colCourse, cs[2])
	o.check("comment moved to another course of its department", false)
	set(b, colCourse, hist[1])
	o.check("comment moved across departments", false)
	if got := o.deps("HISTORY"); len(got) != 2 {
		t.Fatalf("HISTORY lists %d courses after the move, want 2", len(got))
	}
	del(b)
	o.check("delete of a course's last rated comment", false)
	if got := o.deps("HISTORY"); len(got) != 1 || got[0].CourseID != hist[0] {
		t.Fatalf("HISTORY = %+v after its second course lost its only rating", got)
	}

	// Several rows in one statement: one delivery per row, chained.
	n, err := tbl.UpdateWhere(
		func(r relation.Row) bool { return r[colText] == "seed" && r[colRating] == 1.0 },
		func(r relation.Row) relation.Row { r[colRating] = 1.5; return r })
	if err != nil || n < 2 {
		t.Fatalf("multi-row update touched %d rows: %v", n, err)
	}
	o.check("multi-row rating update", false)

	// CS grows past what a reader sees and shrinks below it again.
	var grown []int64
	for i, course := range cs[feedTopPerDept-1:] {
		grown = append(grown, add(int64(20+i), course, 5))
		o.check(fmt.Sprintf("CS grows to %d rated courses", feedTopPerDept+i), false)
	}
	if all, seen := o.deps("CS"), o.top("CS"); len(all) != feedTopPerDept+3 || len(seen) != feedTopPerDept {
		t.Fatalf("CS keeps %d rated courses and shows %d, want %d and %d", len(all), len(seen), feedTopPerDept+3, feedTopPerDept)
	}
	for _, id := range grown {
		del(id)
		o.check("CS shrinks", false)
	}
	if all, seen := o.deps("CS"), o.top("CS"); len(all) != feedTopPerDept-1 || len(seen) != feedTopPerDept-1 {
		t.Fatalf("CS keeps %d rated courses and shows %d, want %d of each", len(all), len(seen), feedTopPerDept-1)
	}

	rv := Review{SuID: 31, CourseID: hist[1], Year: 2009, Term: catalog.Spring, Grade: "A", Text: "reviewed", Rating: 4}
	_, err = s.EnrollCommentRate(rv)
	must(err)
	o.check("review transaction committed", false)
	if _, err = s.EnrollCommentRate(rv); err == nil {
		t.Fatal("a duplicate review committed")
	}
	o.check("review transaction rolled back", false)

	// A row inserted and deleted by one transaction commits born dead:
	// the version moves, nothing is delivered. The feed is right as it
	// stands, and the next delivery finds the gap.
	tx := s.DB.Begin()
	row, err := tx.Insert(tbl, relation.Row{nil, int64(32), cs[3], int64(2009), "Spring", "never seen", 2.0, nil})
	must(err)
	gone := row[colID]
	if n, err := tx.DeleteWhere(tbl, func(r relation.Row) bool { return r[colID] == gone }); err != nil || n != 1 {
		t.Fatalf("transaction deleted %d of its own rows: %v", n, err)
	}
	must(tx.Commit())
	o.check("born-dead insert", false)
	add(33, cs[3], 4)
	o.check("first delivery after the gap", true)
	add(34, cs[3], 2)
	o.check("maintained again after the rebuild", false)

	must(s.DB.MustTable("Courses").UpdateByKey([]relation.Value{cs[4]}, func(r relation.Row) relation.Row {
		r[s.DB.MustTable("Courses").Schema().MustIndex("Title")] = "Systems, renamed"
		return r
	}))
	o.check("course title update", true)
	add(35, cs[4], 3)
	o.check("maintained again after the title rebuild", false)

	// A course whose last rated comment loses its rating leaves the feed
	// (the patch finds its department in the catalog), and returns when
	// the comment is rated again.
	leaves := cs[feedTopPerDept]
	listed := func() bool {
		return slices.ContainsFunc(o.deps("CS"), func(e FeedEntry) bool { return e.CourseID == leaves })
	}
	last := add(36, leaves, 4)
	o.check("a rated comment on an unrated course", false)
	set(last, colRating, nil)
	o.check("the course's last rating set to NULL", false)
	if listed() {
		t.Fatalf("course %d is still in the feed with no rating left", leaves)
	}
	set(last, colRating, 2.5)
	o.check("the course rated again", false)
	if !listed() {
		t.Fatalf("course %d did not return to the feed when rated again", leaves)
	}

	if st := v.Stats(); st.Patches == 0 || st.Errors != 0 {
		t.Fatalf("feed view stats = %+v", st)
	}
}

// deps returns everything the view keeps for dep; top what a reader of
// the department sees.
func (o *feedOracle) deps(dep string) []FeedEntry {
	o.t.Helper()
	val, _, err := o.v.Get()
	if err != nil {
		o.t.Fatal(err)
	}
	return val.(map[string][]FeedEntry)[dep]
}

func (o *feedOracle) top(dep string) []FeedEntry {
	o.t.Helper()
	list, _, err := o.s.TopRatedFeed(dep, 0)
	if err != nil {
		o.t.Fatal(err)
	}
	return list
}

// TestFeedMaintainedEqualsFreshBuild is the maintenance oracle: after
// every step of a scripted DML sequence the maintained feed is exactly
// what Build returns — float bits, tie order and absent departments
// included — and a full build happens only at the steps that name one.
func TestFeedMaintainedEqualsFreshBuild(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		s, err := NewSite()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		runFeedScript(t, s)
	})
	t.Run("durable", func(t *testing.T) {
		// A low threshold puts several automatic checkpoints inside the
		// script; every write waits for its fsync, so its delivery has
		// landed when the write returns.
		s, err := NewDurableSite(t.TempDir(), relation.DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		runFeedScript(t, s)
		if st := s.Durable.Stats(); st.Checkpoints == 0 {
			t.Fatalf("no checkpoint ran inside the script: %+v", st)
		}
	})
	t.Run("2shard", func(t *testing.T) {
		s, err := NewSite()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.EnableSharding(2); err != nil {
			t.Fatal(err)
		}
		runFeedScript(t, s)
		if st := s.Sharded.Stats(); st.ApplyErrors != 0 {
			t.Fatalf("write-through errors beside the view's observer: %+v", st)
		}
	})
}

// TestFeedMaintainedDurableShardedSeesTheWrite pins PR 22's finding (2)
// for the feed: on a site both durable and sharded the base table's
// version moves before the post-durability observers reach the shards,
// so a feed built through the cluster but fingerprinted on the base
// could cache a ranking one write behind until the next write. Built
// and maintained from the base, the next fresh read has the comment.
func TestFeedMaintainedDurableShardedSeesTheWrite(t *testing.T) {
	s, err := NewDurableSite(t.TempDir(), relation.DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs, _ := feedSite(t, s)
	if err := s.EnableSharding(2); err != nil {
		t.Fatal(err)
	}
	course := cs[feedTopPerDept] // unrated so far
	if _, _, err := s.TopRatedFeed("CS", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Comments.Add(comments.Comment{SuID: int64(40 + i), CourseID: course, Year: 2009, Term: "Spring", Text: "lands", Rating: 5}); err != nil {
			t.Fatal(err)
		}
		list, serve, err := s.TopRatedFeed("CS", 0)
		if err != nil {
			t.Fatal(err)
		}
		if serve.Kind != matview.ServeFresh {
			t.Fatalf("write %d: served %v, want fresh", i, serve.Kind)
		}
		at := slices.IndexFunc(list, func(e FeedEntry) bool { return e.CourseID == course })
		if at < 0 || list[at].Raters != int64(i+1) {
			t.Fatalf("write %d: fresh feed %+v, want course %d with %d raters in it", i, list, course, i+1)
		}
	}
}

// TestFeedMaintainedUnderWriterStorm races four readers against
// writers for a second with the refresher pool running: every value a
// reader sees must be a well-formed feed, once the writers stop the
// maintained value must equal a fresh Build, and the cold build must
// stay the only one — on the memory site because every delivery lands
// under the table lock, on the durable one because a read that finds a
// comment committed but not yet confirmed to the log serves the patched
// snapshot stale and asks for no rebuild. Run under -race it also covers
// the observer appending beside a patch.
func TestFeedMaintainedUnderWriterStorm(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		s, err := NewSite()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		feedStorm(t, s, false)
	})
	t.Run("durable", func(t *testing.T) {
		s, err := NewDurableSite(t.TempDir(), relation.DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Built before the storm: a reader that JOINS the cold build is a
		// blocking read, and one of those does not settle for a snapshot
		// that trails an unconfirmed comment — it builds again.
		feedStorm(t, s, true)
	})
}

func feedStorm(t *testing.T, s *Site, warm bool) {
	cs, hist := feedSite(t, s)
	courses := append(append([]int64(nil), cs...), hist...)
	v, _ := s.Views.View(FeedViewName)
	if warm {
		if _, _, err := v.Get(); err != nil {
			t.Fatal(err)
		}
	}
	tbl := s.DB.MustTable("Comments")
	colID := tbl.Schema().MustIndex("CommentID")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				course := courses[(i*7+w*3)%len(courses)]
				switch {
				case i%5 == 4 && len(mine) > 0:
					id := mine[0]
					mine = mine[1:]
					if _, err := tbl.DeleteWhere(func(r relation.Row) bool { return r[colID] == id }); err != nil {
						t.Error(err)
						return
					}
				case i%11 == 10:
					rv := Review{SuID: int64(1000*w + i), CourseID: course, Year: 2009, Term: catalog.Spring, Text: "storm", Rating: float64(1 + i%5)}
					if _, err := s.EnrollCommentRate(rv); err != nil {
						t.Error(err)
						return
					}
				default:
					rating := 1 + float64(i%5)*0.9
					if i%6 == 0 {
						rating = 0 // unrated
					}
					id, err := s.Comments.Add(comments.Comment{SuID: int64(100 + w), CourseID: course, Year: 2009, Term: "Spring", Text: "storm", Rating: rating})
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
				}
				writes.Add(1)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				val, _, err := v.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if msg := malformedFeed(val.(map[string][]FeedEntry)); msg != "" {
					t.Error(msg)
					return
				}
			}
		}()
	}
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()

	val, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.buildTopRatedFeed()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != matview.ServeFresh || !reflect.DeepEqual(val, want) {
		t.Fatalf("quiesced feed (served %v) differs from a fresh build\n got %v\nwant %v", serve.Kind, val, want)
	}
	st := v.Stats()
	t.Logf("%d writes; view stats %+v", writes.Load(), st)
	if st.Refreshes != 1 || st.Patches == 0 || st.Errors != 0 {
		t.Fatalf("%d builds, %d patches, %d errors; want the cold build and patches only", st.Refreshes, st.Patches, st.Errors)
	}
}

// malformedFeed names the first way feed is not a possible feed value.
func malformedFeed(feed map[string][]FeedEntry) string {
	seen := map[int64]bool{}
	for dep, list := range feed {
		if len(list) == 0 {
			return fmt.Sprintf("%s is listed with no courses", dep)
		}
		for i, e := range list {
			if e.Raters <= 0 {
				return fmt.Sprintf("%s lists %+v without raters", dep, e)
			}
			if seen[e.CourseID] {
				return fmt.Sprintf("course %d is listed twice", e.CourseID)
			}
			seen[e.CourseID] = true
			if i > 0 && !feedBefore(list[i-1], e) {
				return fmt.Sprintf("%s is out of order at %d: %+v then %+v", dep, i, list[i-1], e)
			}
		}
	}
	return ""
}
