package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"courserank/internal/core"
	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/render"
	"courserank/internal/wal"
)

// The storage-level layers that core's public calls hide (sqlmini,
// relation, wal, matview, shard, textindex) are timed by fixed probes
// against the traced twin: a named statement or call, repeated, median
// reported. Probes are the same on every workload; what differs is the
// site they run against (durable for contribute, sharded for campus)
// and the writes the replay left behind.

// prober runs probes under one per-probe time budget; the first error
// sticks and turns the remaining probes into no-ops.
type prober struct {
	budget time.Duration
	ms     *metrics
	err    error
}

// probeIters caps a probe's repetitions; slow probes stop at the time
// budget long before.
const probeIters = 1000

// sample times fn repeatedly — at least three times, then until the
// budget or the iteration cap is reached — and returns the median in
// nanoseconds.
func (pr *prober) sample(name string, iters int, fn func() error) float64 {
	if pr.err != nil {
		return 0
	}
	var samples []float64
	start := time.Now()
	for i := 0; i < iters && (i < 3 || time.Since(start) < pr.budget); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			pr.err = fmt.Errorf("bench: probe %s: %w", name, err)
			return 0
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
	}
	return median(samples)
}

func (pr *prober) set(name string, v float64, unit string) {
	if pr.err == nil {
		pr.ms.set(name, v, unit)
	}
}

// us records fn's median under name in microseconds.
func (pr *prober) us(name string, fn func() error) { pr.usN(name, probeIters, fn) }

func (pr *prober) usN(name string, iters int, fn func() error) {
	pr.set(name, pr.sample(name, iters, fn)/1e3, "us")
}

// msec is us for probes that take milliseconds: five repetitions.
func (pr *prober) msec(name string, fn func() error) {
	pr.set(name, pr.sample(name, 5, fn)/1e6, "ms")
}

// absent records a probe whose layer this workload's deployment does
// not have.
func (pr *prober) absent(unit string, names ...string) {
	for _, n := range names {
		pr.ms.set(n, 0, unit)
	}
}

// runProbes times every fixed probe against t. durableDir is t's
// storage directory ("" when in memory); scratch is an empty directory
// for the standalone WAL probes. It closes t: the recovery probe must
// reopen its directory.
func runProbes(t *twin, durableDir, scratch string, budget time.Duration, ms *metrics) error {
	site := t.site
	pr := &prober{budget: budget, ms: ms}
	student := t.man.SampleStudent
	intro := t.man.Planted["intro-programming"]
	introCourse, ok := site.Catalog.Course(intro)
	if !ok {
		return fmt.Errorf("bench: twin has no intro-programming course")
	}

	// search, cloud, render, planner: the browse path below core.
	broad, err := site.SearchCourses("american")
	if err != nil {
		return err
	}
	pr.us("search.query_us.broad", func() error { _, err := site.SearchCourses("american"); return err })
	pr.us("search.query_us.narrow", func() error { _, err := site.SearchCourses("greek"); return err })
	pr.us("search.refine_us", func() error { _, err := site.RefineSearch(broad, "african american"); return err })
	pr.us("cloud.compute_us.broad", func() error { _, err := site.CourseCloud(broad, 30); return err })
	pr.us("render.course_page_us", func() error { _, err := render.CoursePage(site, intro); return err })
	pr.us("planner.plan_us", func() error { site.Planner.Plan(student); return nil })

	// flexrecs: each registered strategy end to end.
	params := map[string]any{
		"student": student, "k": int64(10), "title": introCourse.Title,
		"dep": introCourse.DepID, "course": intro,
	}
	for _, s := range strategies {
		pr.us("flexrecs.run_us."+s, func() error { _, err := site.Strategies.Run(site.Flex, s, params); return err })
	}

	// sqlmini: prepared statements of the shapes the strategies compile to.
	for _, q := range []struct {
		name, sql string
		args      []any
	}{
		{"sqlmini.point_us", `SELECT Title, DepID FROM Courses WHERE CourseID = ?`, []any{intro}},
		{"sqlmini.join_us", `SELECT c.CourseID, c.Title, m.Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE m.SuID = ?`, []any{student}},
		{"sqlmini.topk_desc_us", `SELECT SuID, CourseID, Rating FROM Comments WHERE Rating >= ? ORDER BY Rating DESC LIMIT 10`, []any{4.0}},
		{"sqlmini.agg_scan_us", `SELECT CourseID, AVG(Rating), COUNT(Rating) FROM Comments GROUP BY CourseID`, nil},
	} {
		st, err := site.SQL.Prepare(q.sql)
		if err != nil {
			return fmt.Errorf("bench: probe %s: %w", q.name, err)
		}
		pr.us(q.name, func() error { _, err := st.Query(q.args...); return err })
	}

	// relation: the access paths and the three write shapes.
	courses, commentsTbl := site.DB.MustTable("Courses"), site.DB.MustTable("Comments")
	years, ratings, events := site.DB.MustTable("CourseYears"), site.DB.MustTable("Ratings"), site.DB.MustTable("PointEvents")
	pr.us("relation.get_us", func() error { courses.Get(intro); return nil })
	pr.us("relation.lookup_us", func() error { commentsTbl.Lookup("SuID", student); return nil })
	pr.us("relation.range_us", func() error {
		years.Range("Year", &relation.RangeBound{Value: int64(2008), Inclusive: true}, nil)
		return nil
	})
	pr.us("relation.insert_us", func() error {
		_, err := events.Insert(relation.Row{nil, student, "probe", int64(0), ""})
		return err
	})
	if err := site.Comments.Rate(student, intro, 4); err != nil {
		return err
	}
	flip := 0.0
	pr.us("relation.update_us", func() error {
		flip = 1 - flip
		return ratings.UpdateByKey([]relation.Value{student, intro},
			func(r relation.Row) relation.Row { r[2] = 3 + flip; return r })
	})

	// durability: checkpoint first — it also resets the WAL record count,
	// which the transaction probe below depends on.
	if site.Durable != nil {
		pr.msec("relation.checkpoint_ms", site.Durable.Checkpoint)
	} else {
		pr.absent("ms", "relation.checkpoint_ms")
	}
	// On a durable site Tx.Commit deadlocks when it is the commit that
	// crosses the auto-checkpoint threshold (README, "Why contribute has
	// no review"). 300 transactions append 600 records, far below the
	// 4 096-record threshold the checkpoint above just reset.
	pr.usN("relation.tx_commit_us", 300, func() error {
		tx := site.DB.Begin()
		if _, err := tx.Insert(events, relation.Row{nil, student, "probe-tx", int64(0), ""}); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	})

	// matview: a warm hit, a forced cold build of the feed, and the
	// FlexRecs materialized prefix rebuilding under department-popular.
	feed, ok := site.Views.View(core.FeedViewName)
	if !ok {
		return fmt.Errorf("bench: feed view not registered")
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, serve, err := site.TopRatedFeed(introCourse.DepID, 10)
		if err != nil {
			return err
		}
		if serve.Kind == matview.ServeFresh || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond) // an async refresh is still running behind the read
	}
	pr.us("matview.hit_us", func() error { _, _, err := site.TopRatedFeed(introCourse.DepID, 10); return err })
	pr.msec("matview.cold_build_ms", func() error {
		feed.Invalidate()
		_, _, err := site.TopRatedFeed(introCourse.DepID, 10)
		return err
	})
	var extend *matview.View
	for _, v := range site.Views.Views() {
		if strings.Contains(v.Stats().Name, "ratings-extend") {
			extend = v
		}
	}
	if extend == nil {
		return fmt.Errorf("bench: no ratings-extend view after running department-popular")
	}
	pr.msec("flexrecs.mat_rebuild_ms", func() error {
		extend.Invalidate()
		_, err := site.Strategies.Run(site.Flex, "department-popular", params)
		return err
	})

	// shard: one statement on the single-shard fast path, one fanned out,
	// and the fan-out's price over the same statement on the base engine.
	if c := site.Sharded; c != nil {
		const fanSQL = `SELECT SuID, CourseID, Rating FROM Comments WHERE Rating >= ? ORDER BY Rating DESC`
		fast, err := c.Prepare(`SELECT CourseID, Rating FROM Comments WHERE SuID = ?`)
		if err != nil {
			return err
		}
		fan, err := c.Prepare(fanSQL)
		if err != nil {
			return err
		}
		mono, err := site.SQL.Prepare(fanSQL)
		if err != nil {
			return err
		}
		pr.us("shard.fastpath_us", func() error { _, err := fast.Query(student); return err })
		fanNs := pr.sample("shard.fanout_us", probeIters, func() error { _, err := fan.Query(4.5); return err })
		monoNs := pr.sample("shard.fanout_tax", probeIters, func() error { _, err := mono.Query(4.5); return err })
		pr.set("shard.fanout_us", fanNs/1e3, "us")
		pr.set("shard.fanout_tax", ratio(fanNs, monoNs, 0), "ratio")
	} else {
		pr.absent("us", "shard.fastpath_us", "shard.fanout_us")
		pr.absent("ratio", "shard.fanout_tax")
	}

	// The one-shot statement texts below are all new to the plan cache:
	// each pays lexing, parsing and planning. Last, because 200 new
	// entries may evict plans the probes above rely on.
	n := 0
	pr.usN("sqlmini.plan_miss_us", 200, func() error {
		n++
		_, err := site.SQL.Query(fmt.Sprintf(`SELECT Title FROM Courses WHERE CourseID = %d`, 1_000_000+n))
		return err
	})

	// wal and recovery exist only on a durable deployment.
	if site.Durable == nil {
		pr.absent("us", "wal.commit_us", "wal.group_commit_us")
		pr.absent("ms", "relation.recovery_ms")
		t.close()
		return pr.err
	}
	walProbes(pr, scratch)
	t.close()
	pr.msec("relation.recovery_ms", func() error {
		_, store, err := relation.OpenDurable(durableDir, relation.DurableOptions{Sync: wal.SyncAlways})
		if err != nil {
			return err
		}
		return store.Close()
	})
	return pr.err
}

// walProbes time a commit on a standalone log under the server's flush
// policy: alone (every commit pays its own fsync) and with four
// committers (commits ride one another's fsync).
func walProbes(pr *prober, scratch string) {
	payload := make([]byte, 64)
	open := func(name string) (*wal.Log, error) {
		log, _, err := wal.Open(filepath.Join(scratch, name), wal.Options{Sync: wal.SyncAlways})
		return log, err
	}
	commit := func(log *wal.Log) error {
		lsn, err := log.Append(1, payload)
		if err != nil {
			return err
		}
		return log.Commit(lsn)
	}
	solo, err := open("solo.log")
	if err != nil {
		pr.err = err
		return
	}
	pr.us("wal.commit_us", func() error { return commit(solo) })
	solo.Close()

	group, err := open("group.log")
	if err != nil {
		pr.err = err
		return
	}
	defer group.Close()
	const committers, each = 4, 50
	// One sample is a burst of 4×50 commits; the metric is the burst's
	// wall time per commit.
	burstNs := pr.sample("wal.group_commit_us", 20, func() error {
		var wg sync.WaitGroup
		errs := make([]error, committers)
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < each && errs[c] == nil; i++ {
					errs[c] = commit(group)
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	pr.set("wal.group_commit_us", burstNs/1e3/(committers*each), "us")
}
