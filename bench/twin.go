package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"

	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/comments"
	"courserank/internal/community"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/flexrecs"
	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/render"
	"courserank/internal/search"
	"courserank/internal/server"
	"courserank/internal/wal"
)

// twin is an in-process CourseRank site built exactly as cmd/courserank
// builds the server's: same datagen preset and seed, same durable,
// sharding and observability settings. The output check compares the
// real server's responses against it, the script generator reads the
// world off it, and the traced run replays requests on two of them.
type twin struct {
	site   *core.Site
	man    *datagen.Manifest
	srv    *server.Server
	tokens []string // session token of world.students[i]
}

func scaleConfig(scale string) (datagen.Config, error) {
	switch scale {
	case "tiny":
		return datagen.Tiny(), nil
	case "small":
		return datagen.Small(), nil
	}
	return datagen.Config{}, fmt.Errorf("bench: unknown scale %q (tiny or small)", scale)
}

// newTwin mirrors cmd/courserank's start-up for wl. durableDir is used
// only by durable workloads and must be fresh.
func newTwin(wl workload, scale, durableDir string) (*twin, error) {
	cfg, err := scaleConfig(scale)
	if err != nil {
		return nil, err
	}
	var site *core.Site
	if wl.durable {
		site, err = core.NewDurableSite(durableDir, relation.DurableOptions{Sync: wal.SyncAlways})
	} else {
		site, err = core.NewSite()
	}
	if err != nil {
		return nil, fmt.Errorf("bench: twin site: %w", err)
	}
	t := &twin{site: site}
	populate := func() error {
		t.man, err = datagen.Populate(site, cfg)
		return err
	}
	if site.Durable != nil {
		err = site.Durable.Bulk(populate)
	} else {
		err = populate()
	}
	if err == nil && wl.shards > 0 {
		err = site.EnableSharding(wl.shards)
	}
	if err != nil {
		site.Close()
		return nil, fmt.Errorf("bench: populating twin: %w", err)
	}
	site.EnableObservability()
	t.srv = server.New(site)
	return t, nil
}

// close stops the site and drops it, so the collector can take its
// heap back; closing twice is harmless, so callers can defer it and
// still close early.
func (t *twin) close() {
	if t.site != nil {
		t.site.Close()
		t.site, t.srv, t.man = nil, nil, nil
	}
}

// world reads the script generator's inputs off the twin.
func (t *twin) world(scale string) (world, error) {
	cfg, err := scaleConfig(scale)
	if err != nil {
		return world{}, err
	}
	var w world
	for i := 1; i <= cfg.RegisteredStudents; i++ {
		name := fmt.Sprintf("stu%05d", i)
		u, ok := t.site.Community.UserByUsername(name)
		if !ok {
			return world{}, fmt.Errorf("bench: student %s is not registered on the twin", name)
		}
		w.students = append(w.students, student{username: name, id: u.ID})
	}
	var all []catalog.Course
	t.site.Catalog.EachCourse(func(c catalog.Course) bool {
		all = append(all, c)
		return true
	})
	sort.Slice(all, func(a, b int) bool { return all[a].ID < all[b].ID })
	for _, c := range all {
		w.courses = append(w.courses, c.ID)
		w.courseDep = append(w.courseDep, c.DepID)
	}
	keys := make([]string, 0, len(t.man.Planted))
	for k := range t.man.Planted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if c, ok := t.site.Catalog.Course(t.man.Planted[k]); ok {
			w.titles = append(w.titles, c.Title)
		}
	}
	if len(w.titles) == 0 || len(w.courses) == 0 {
		return world{}, fmt.Errorf("bench: twin has no planted titles or no courses")
	}
	return w, nil
}

// login opens one session per student, in the order the harness logs
// them in on the real server (day 1, like the server's fixed login day).
func (t *twin) login(w world) error {
	t.tokens = make([]string, len(w.students))
	for i, s := range w.students {
		tok, err := t.site.Community.Login(s.username, 1)
		if err != nil {
			return fmt.Errorf("bench: twin login %s: %w", s.username, err)
		}
		t.tokens[i] = tok
	}
	return nil
}

// serve runs e through the twin's HTTP handler with a recorder: the
// whole server path except the network.
func (t *twin) serve(e entry) (int, []byte) {
	req := httptest.NewRequest(e.method, e.path, bytes.NewReader(e.body))
	req.Header.Set("Authorization", "Bearer "+t.tokens[e.student])
	rec := httptest.NewRecorder()
	t.srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// spanFunc times one call into a layer; the traced run passes a
// recorder, everything else passes noSpan.
type spanFunc func(name string, fn func())

func noSpan(_ string, fn func()) { fn() }

// call replays e on the twin as the ordered list of public calls the
// HTTP handler makes for e's class — the call table. Each call runs
// inside span, so the traced run sees one child span per layer
// boundary; the returned bytes are the JSON payload the handler would
// have written, which the traced run compares with the handler's own
// (that comparison, and trace.coverage, are what catch this table
// drifting from internal/server).
func (t *twin) call(e entry, span spanFunc) ([]byte, error) {
	site := t.site
	var u community.User
	var ok bool
	span("community.Session", func() { u, ok = site.Community.Session(t.tokens[e.student]) })
	if !ok {
		return nil, fmt.Errorf("no session for student %d", e.student)
	}
	var payload any
	var build func() any // payload assembly the handler does itself, timed with the encoding
	var err error
	switch e.class {
	case clSearch, clSearchRefine:
		payload, err = t.callSearch(e, span)
	case clCourse:
		var page string
		span("render.CoursePage", func() { page, err = render.CoursePage(site, e.course) })
		if err != nil {
			return nil, err
		}
		var c catalog.Course
		var avg float64
		var n int
		span("comments.AvgRating", func() {
			c, _ = site.Catalog.Course(e.course)
			avg, n = site.Comments.AvgRating(e.course)
		})
		payload = map[string]any{"course": c, "avgRating": avg, "raters": n, "page": page}
	case clPlan:
		var plan any
		var page string
		span("planner.Plan", func() { plan = site.Planner.Plan(u.ID) })
		span("render.Plan", func() { page = render.Plan(site, u.ID) })
		payload = map[string]any{"plan": plan, "page": page}
	case clPoints:
		var points int
		var ledger []community.LedgerEntry
		span("community.Points", func() {
			points = site.Community.Points(u.ID)
			ledger = site.Community.Ledger(u.ID)
		})
		payload = map[string]any{"points": points, "ledger": ledger}
	case clFeed:
		var entries []core.FeedEntry
		var serve matview.Serve
		span("core.TopRatedFeed", func() { entries, serve, err = site.TopRatedFeed(e.dep, e.k) })
		served := "fresh"
		switch serve.Kind {
		case matview.ServeStale:
			served = "stale"
		case matview.ServeBuilt:
			served = "built"
		}
		payload = map[string]any{"dep": e.dep, "entries": entries, "served": served, "ageMs": serve.Age.Milliseconds()}
	case clRate:
		span("comments.Rate", func() { err = site.Comments.Rate(u.ID, e.course, e.rating) })
		if err == nil {
			span("community.Award", func() { err = site.Community.Award(u.ID, "rating", community.PointsRating, "") })
		}
		payload = map[string]bool{"ok": true}
	case clComment:
		var id int64
		span("comments.Add", func() {
			id, err = site.Comments.Add(comments.Comment{
				SuID: u.ID, CourseID: e.course, Year: e.year, Term: e.term, Text: e.text, Rating: e.rating,
			})
		})
		if err == nil {
			span("community.Award", func() { err = site.Community.Award(u.ID, "comment", community.PointsComment, "") })
		}
		payload = map[string]int64{"commentId": id}
	case clReview:
		var id int64
		span("core.EnrollCommentRate", func() {
			id, err = site.EnrollCommentRate(core.Review{
				SuID: u.ID, CourseID: e.course, Year: e.year, Term: catalog.Term(e.term),
				Grade: catalog.Grade(e.grade), Text: e.text, Rating: e.rating,
			})
		})
		if err == nil {
			span("community.Award", func() {
				if err = site.Community.Award(u.ID, "comment", community.PointsComment, ""); err == nil {
					err = site.Community.Award(u.ID, "rating", community.PointsRating, "")
				}
			})
		}
		payload = map[string]int64{"commentId": id}
	default: // the /api/recommend/{strategy} classes
		params := map[string]any{"student": u.ID, "k": int64(e.k)}
		if e.title != "" {
			params["title"] = e.title
		}
		if e.dep != "" {
			params["dep"] = e.dep
		}
		var res *flexrecs.Relation
		span("flexrecs.Run", func() { res, err = site.Strategies.Run(site.Flex, e.class, params) })
		build = func() any {
			rows := make([][]string, res.Len())
			for i := range res.Rows {
				rows[i] = res.Strings(i)
			}
			return map[string]any{"columns": res.Cols, "rows": rows}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.class, err)
	}
	var buf bytes.Buffer
	span("server.JSON", func() {
		if build != nil {
			payload = build()
		}
		err = json.NewEncoder(&buf).Encode(payload)
	})
	return buf.Bytes(), err
}

func (t *twin) callSearch(e entry, span spanFunc) (any, error) {
	site := t.site
	var res *search.Results
	var err error
	span("core.SearchCourses", func() { res, err = site.SearchCourses(e.q) })
	if err != nil {
		return nil, err
	}
	if e.refine != "" {
		span("core.RefineSearch", func() { res, err = site.RefineSearch(res, e.refine) })
		if err != nil {
			return nil, err
		}
	}
	var cl *cloud.Cloud
	span("core.CourseCloud", func() { cl, err = site.CourseCloud(res, 30) })
	if err != nil {
		return nil, err
	}
	type hit struct {
		CourseID int64   `json:"courseId"`
		Code     string  `json:"code"`
		Title    string  `json:"title"`
		Score    float64 `json:"score"`
	}
	hits := make([]hit, 0, 20)
	cloudOut := make([]map[string]any, 0, len(cl.Terms))
	span("catalog.Hits", func() {
		for _, h := range res.Top(20) {
			if c, ok := site.Catalog.Course(h.DocID); ok {
				hits = append(hits, hit{CourseID: c.ID, Code: c.Code(), Title: c.Title, Score: h.Score})
			}
		}
		for _, term := range cl.Alphabetical() {
			cloudOut = append(cloudOut, map[string]any{"term": term.Text, "weight": term.Weight, "docs": term.ResultDocs})
		}
	})
	return map[string]any{"total": res.Total(), "query": res.Query.String(), "hits": hits, "cloud": cloudOut}, nil
}
