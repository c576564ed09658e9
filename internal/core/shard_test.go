package core_test

// External test package: exercising the sharded site end to end needs
// datagen, which imports core.

import (
	"reflect"
	"slices"
	"testing"

	"courserank/internal/comments"
	"courserank/internal/core"
	"courserank/internal/datagen"
)

func shardedPair(t *testing.T) (mono, sharded *core.Site, man *datagen.Manifest) {
	t.Helper()
	build := func() (*core.Site, *datagen.Manifest) {
		s, err := core.NewSite()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		m, err := datagen.Populate(s, datagen.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		return s, m
	}
	mono, man = build()
	sharded, _ = build() // same seed → identical corpus
	if err := sharded.EnableSharding(3); err != nil {
		t.Fatal(err)
	}
	return mono, sharded, man
}

// TestShardedSitePlacement: splitting partitions the student-keyed
// tables (disjoint, union = base) and replicates everything else.
func TestShardedSitePlacement(t *testing.T) {
	_, s, _ := shardedPair(t)
	st := s.Sharded.Stats()
	if st.Shards != 3 {
		t.Fatalf("shards = %d", st.Shards)
	}
	want := map[string]bool{"Comments": true, "Enrollments": true, "EnrollmentPoints": true}
	for _, name := range st.PartitionedTables {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Fatalf("tables not partitioned: %v (have %v)", want, st.PartitionedTables)
	}
	total, spread := 0, 0
	for i := 0; i < st.Shards; i++ {
		n := s.Sharded.DB(i).MustTable("Comments").Len()
		total += n
		if n > 0 {
			spread++
		}
	}
	if got := s.Scale().Comments; total != got {
		t.Fatalf("sharded Comments rows = %d, base has %d", total, got)
	}
	if spread < 2 {
		t.Fatalf("comments landed on %d shards; partitioning is not spreading", spread)
	}
}

// TestShardedStrategies: the FlexRecs workflows recompile onto the
// cluster and keep answering — the per-student history feed rides the
// single-shard fast path, and the similarity workflows answer exactly
// like the monolithic twin: their nestings are maintained views, built
// from the base tables in group-key order, so no statement of theirs
// fans out.
func TestShardedStrategies(t *testing.T) {
	mono, s, man := shardedPair(t)

	res, err := s.Strategies.Run(s.Flex, "related-courses", map[string]any{
		"title": "Introduction to Programming", "year": int64(2008), "k": 5})
	if err != nil {
		t.Fatal(err)
	}
	if ti := res.MustCol("Title"); res.Len() == 0 || res.Rows[0][ti] != "Introduction to Programming" {
		t.Fatalf("sharded related-courses top = %+v", res.Rows)
	}

	before := s.Sharded.Stats()
	hist, err := s.Strategies.Run(s.Flex, "rated-courses", map[string]any{
		"student": man.SampleStudent, "k": 20})
	if err != nil {
		t.Fatal(err)
	}
	monoHist, err := mono.Strategies.Run(mono.Flex, "rated-courses", map[string]any{
		"student": man.SampleStudent, "k": 20})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() == 0 || hist.Len() != monoHist.Len() {
		t.Fatalf("rated-courses: sharded %d rows, mono %d", hist.Len(), monoHist.Len())
	}
	after := s.Sharded.Stats()
	if after.FastPath <= before.FastPath {
		t.Fatalf("per-student history did not ride the fast path: %+v → %+v", before, after)
	}

	before = s.Sharded.Stats()
	for _, name := range []string{"cf-courses", "grade-peers"} {
		shardRes, err := s.Strategies.Run(s.Flex, name, map[string]any{
			"student": man.SampleStudent, "k": 5})
		if err != nil {
			t.Fatalf("sharded %s: %v", name, err)
		}
		monoRes, err := mono.Strategies.Run(mono.Flex, name, map[string]any{
			"student": man.SampleStudent, "k": 5})
		if err != nil {
			t.Fatalf("mono %s: %v", name, err)
		}
		if shardRes.Len() == 0 || !reflect.DeepEqual(shardRes.Rows, monoRes.Rows) {
			t.Errorf("%s: sharded %v, mono %v", name, shardRes.Rows, monoRes.Rows)
		}
	}
	if st := s.Sharded.Stats(); st.FanOut != before.FanOut {
		t.Fatalf("similarity workflows fanned out: %+v → %+v", before, st)
	}
}

// TestShardedFeedParity: the feed is built and maintained from the base
// tables on a sharded site too, so it must rank every department
// exactly like the monolithic twin — after the cold build and after a
// write batch both sides patch in: comments through Comments.Add and
// reviews through the EnrollCommentRate transaction, each written
// through to the shards beside the view's own observer.
func TestShardedFeedParity(t *testing.T) {
	mono, s, man := shardedPair(t)
	deps, err := mono.SQL.Query(`SELECT DepID FROM Departments ORDER BY DepID`)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(when string) {
		t.Helper()
		checked := 0
		for _, r := range deps.Rows {
			dep := r[0].(string)
			want, _, err := mono.TopRatedFeed(dep, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := s.TopRatedFeed(dep, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %s feed: sharded %+v, mono %+v", when, dep, got, want)
			}
			checked += len(want)
		}
		if checked == 0 {
			t.Fatal("no feed entries compared; generator produced no rated courses?")
		}
	}
	compare("cold")

	courses, err := mono.SQL.Query(`SELECT CourseID FROM Courses ORDER BY CourseID LIMIT 12`)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range courses.Rows {
		course := r[0].(int64)
		for _, site := range []*core.Site{mono, s} {
			if i%3 == 2 {
				_, err = site.EnrollCommentRate(core.Review{
					SuID: man.SampleStudent, CourseID: course, Year: 2031, Term: "Autumn",
					Text: "reviewed after sharding", Rating: float64(1 + i%5),
				})
			} else {
				_, err = site.Comments.Add(comments.Comment{
					SuID: man.SampleStudent + int64(i), CourseID: course, Year: 2031, Term: "Winter",
					Text: "after sharding", Rating: 1.3 + float64(i%4),
				})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	compare("after the write batch")
	for _, site := range []*core.Site{mono, s} {
		v, _ := site.Views.View(core.FeedViewName)
		if st := v.Stats(); st.Refreshes != 1 || st.Patches == 0 {
			t.Fatalf("feed view stats %+v, want the cold build and patches only", st)
		}
	}
	if st := s.Sharded.Stats(); st.ApplyErrors != 0 {
		t.Fatalf("propagation errors: %+v", st)
	}
}

// TestShardedWriteThrough: base writes made after sharding propagate
// into the shards synchronously, so cluster reads see them.
func TestShardedWriteThrough(t *testing.T) {
	_, s, man := shardedPair(t)
	count := func() int64 {
		res, err := s.Sharded.Query(`SELECT COUNT(*) FROM Comments WHERE SuID = ?`, man.SampleStudent)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64)
	}
	n0 := count()
	course, err := s.Sharded.Query(`SELECT CourseID FROM Courses ORDER BY CourseID LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Comments.Add(comments.Comment{
		SuID: man.SampleStudent, CourseID: course.Rows[0][0].(int64),
		Year: 2008, Term: "Winter", Text: "after sharding", Rating: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if n1 := count(); n1 != n0+1 {
		t.Fatalf("write-through lost the comment: %d → %d", n0, n1)
	}
	if st := s.Sharded.Stats(); st.ApplyErrors != 0 {
		t.Fatalf("propagation errors: %+v", st)
	}
}
