// Matview: the materialization layer end to end — the precomputation
// pattern that keeps feed and recommendation queries at interactive
// latency over a live site.
//
// The walk shows, against a generated deployment:
//
//  1. refresh-on-read with single-flight: a stampede of cold readers
//     shares ONE build of the department-popular ratings extend;
//  2. warm serving: the same workflow again costs a snapshot load, and
//     Explain annotates the step with "matview hit (age=…)";
//  3. a maintained view: a rating lands and the very next read of the
//     top-rated feed shows it, by re-aggregating that one course —
//     a patch, not a rebuild;
//  4. the maintained view's fallback: a course is renamed, which the
//     feed cannot patch around, so the next read rebuilds it — and still
//     shows the new title;
//  5. versioned invalidation: the registry's counters tell the story.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"courserank/internal/comments"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/matview"
	"courserank/internal/relation"
)

func main() {
	site, err := core.NewSite()
	if err != nil {
		log.Fatal(err)
	}
	defer site.Close()
	man, err := datagen.Populate(site, datagen.Tiny())
	if err != nil {
		log.Fatal(err)
	}
	course, _ := site.Catalog.Course(man.Planted["intro-programming"])
	dep := course.DepID

	// 1. Single-flight: eight concurrent cold requests for the
	// department-popular strategy all need the ratings-extend view —
	// which no template asks for: the engine's rewriter materializes
	// the parameter-free extend on its own — and the registry builds
	// it once for everyone.
	fmt.Println("— cold stampede (8 concurrent requests) —")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := site.Strategies.Run(site.Flex, "department-popular",
				map[string]any{"dep": dep, "k": 5}); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	for _, v := range site.Views.Views() {
		st := v.Stats()
		if st.Refreshes > 0 {
			fmt.Printf("  view %-40s built %d time(s) for %d serve(s)\n",
				st.Name, st.Refreshes, st.Hits+st.Misses)
		}
	}

	// 2. Warm serving, visible in Explain.
	tpl, _ := site.Strategies.Get("department-popular")
	wf, err := tpl.Build(map[string]any{"dep": dep, "k": 5})
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	if _, err := site.Flex.Run(wf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n— warm request in %v; its plan —\n%s\n", time.Since(t0).Round(time.Microsecond), site.Flex.Explain(wf))

	// 3. Maintained feed: the view logs which course each committed
	// comment touches, and the next read recomputes just that course.
	fmt.Println("— maintained top-rated feed —")
	entries, serve, err := site.TopRatedFeed(dep, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  cold read (%s): %d entries\n", kind(serve), len(entries))
	if _, err := site.Comments.Add(comments.Comment{
		SuID: man.SampleStudent, CourseID: course.ID,
		Year: 2008, Term: "Aut", Text: "latest opinion", Rating: 5,
	}); err != nil {
		log.Fatal(err)
	}
	if _, serve, err = site.TopRatedFeed(dep, 3); err != nil {
		log.Fatal(err)
	}
	feed, _ := site.Views.View(core.FeedViewName)
	fmt.Printf("  read right after a rating landed (%s): %d build(s), %d patch(es)\n",
		kind(serve), feed.Stats().Refreshes, feed.Stats().Patches)

	// 4. The fallback: a renamed course could sit under any entry, so
	// the next read rebuilds the view.
	courses := site.DB.MustTable("Courses")
	title := courses.Schema().MustIndex("Title")
	if err := courses.UpdateByKey([]relation.Value{course.ID}, func(r relation.Row) relation.Row {
		r[title] = course.Title + " (renamed)"
		return r
	}); err != nil {
		log.Fatal(err)
	}
	if entries, serve, err = site.TopRatedFeed(dep, 0); err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		if e.CourseID == course.ID {
			fmt.Printf("  read right after a course was renamed (%s): %q\n", kind(serve), e.Title)
		}
	}
	if _, serve, err = site.TopRatedFeed(dep, 3); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  the read after that (%s)\n", kind(serve))

	// 5. The registry's ledger.
	fmt.Println("\n— registry counters —")
	s := site.Views.Stats()
	fmt.Printf("  %d views: %d hits, %d misses, %d refreshes, %d patches, %d invalidations\n",
		s.Views, s.Hits, s.Misses, s.Refreshes, s.Patches, s.Invalidations)
}

func kind(s matview.Serve) string {
	if s.Kind == matview.ServeFresh {
		return "fresh hit"
	}
	return "blocking build"
}
