package courserank

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"courserank/internal/catalog"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/relation"
	"courserank/internal/server"
	"courserank/internal/wal"
)

// serveGET sends one GET through the server's handler, in process, and
// returns the recorder.
func serveGET(srv http.Handler, token, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// loginAs opens a session on the site for a directory user.
func loginAs(t *testing.T, s *core.Site, username string) string {
	t.Helper()
	token, err := s.Community.Login(username, 1)
	if err != nil {
		t.Fatal(err)
	}
	return token
}

// zipfHeadCourse is the course the bench's Zipf draw asks for most: the
// lowest id.
func zipfHeadCourse(t *testing.T, s *core.Site) catalog.Course {
	t.Helper()
	var head catalog.Course
	s.Catalog.EachCourse(func(c catalog.Course) bool {
		if head.ID == 0 || c.ID < head.ID {
			head = c
		}
		return true
	})
	if head.ID == 0 {
		t.Fatal("no courses")
	}
	return head
}

// getRoutes is one request to every GET route of the server (and a
// search with a refinement, and each FlexRecs strategy through the
// recommend, explain and analyze routes), for the given course and
// title.
func getRoutes(course catalog.Course, title string) []string {
	id := strconv.FormatInt(course.ID, 10)
	routes := []string{
		"/api/health",
		"/api/search?q=american",
		"/api/search?q=programming&refine=introduction",
		"/api/course/" + id,
		"/api/plan",
		"/api/stats",
		"/api/queries",
		"/api/slowlog",
		"/api/views",
		"/api/feed/" + url.PathEscape(course.DepID),
		"/api/points",
		"/api/leaderboard",
		"/api/components",
		"/api/advise/majors",
		"/api/advise/quarters/" + id,
		"/api/compare/" + id,
	}
	t := url.QueryEscape(title)
	for _, q := range []string{
		"related-courses?title=" + t + "&year=2008",
		"rated-courses?k=10",
		"top-rated?min=4&k=10",
		"contemporary-courses?course=" + id + "&band=1&k=10",
		"cf-courses?k=10",
		"grade-peers?k=10",
		"department-popular?dep=" + url.QueryEscape(course.DepID) + "&k=10",
		"hybrid?title=" + t + "&k=10",
	} {
		routes = append(routes, "/api/recommend/"+q, "/api/explain/"+q, "/api/analyze/"+q)
	}
	return routes
}

// tableDigests hashes every row of every table of each database, per
// table, in slot order.
func tableDigests(dbs ...*relation.DB) map[string]string {
	out := map[string]string{}
	for i, db := range dbs {
		for _, name := range db.Names() {
			h := sha256.New()
			var b []byte
			db.MustTable(name).Scan(func(slot int, r relation.Row) bool {
				b = strconv.AppendInt(b[:0], int64(slot), 10)
				for _, v := range r {
					switch x := v.(type) {
					case nil:
						b = append(b, "|n"...)
					case int64:
						b = strconv.AppendInt(append(b, "|i"...), x, 10)
					case float64:
						b = strconv.AppendUint(append(b, "|f"...), math.Float64bits(x), 16)
					case string:
						b = strconv.AppendQuote(append(b, "|s"...), x)
					case bool:
						b = strconv.AppendBool(append(b, "|b"...), x)
					default:
						b = fmt.Appendf(append(b, "|?"...), "%T%v", x, x)
					}
				}
				h.Write(append(b, '\n'))
				return true
			})
			out[fmt.Sprintf("db%d/%s", i, name)] = fmt.Sprintf("%x", h.Sum(nil))
		}
	}
	return out
}

// TestStoredRowsUnchangedByReads is the immutability oracle: every read
// hands out the stored rows themselves, so a reader that wrote into one
// would change the table behind every other reader's back. On a Small
// site built three ways (memory mono, durable mono, memory 2-shard) it
// drives every GET route through Server.ServeHTTP and requires each
// table's rows, the shards' included, to hash the same before and after.
func TestStoredRowsUnchangedByReads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three Small-scale sites")
	}
	durable := func(t *testing.T) *core.Site {
		s, err := core.NewDurableSite(t.TempDir(), relation.DurableOptions{Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := s.Durable.Bulk(func() error {
			_, err := datagen.Populate(s, datagen.Small())
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, cfg := range []struct {
		name string
		site func(t *testing.T) *core.Site
	}{
		{"memory mono", func(t *testing.T) *core.Site { return runner(t).Site }},
		{"durable mono", durable},
		{"memory 2-shard", func(t *testing.T) *core.Site { return shardedRunner(t).Site }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			s := cfg.site(t)
			dbs := []*relation.DB{s.DB}
			if s.Sharded != nil {
				for i := range s.Sharded.Shards() {
					dbs = append(dbs, s.Sharded.DB(i))
				}
			}
			s.EnableObservability() // for /api/queries and /api/slowlog, as cmd/courserank does
			t.Cleanup(s.DisableObservability)
			srv := server.New(s)
			student, staff := loginAs(t, s, "stu00001"), loginAs(t, s, "staff001")
			intro, ok := s.Catalog.Course(plantedIntro(t, s))
			if !ok {
				t.Fatal("no intro-programming course")
			}
			before := tableDigests(dbs...)
			for _, course := range []catalog.Course{zipfHeadCourse(t, s), intro} {
				for _, path := range getRoutes(course, intro.Title) {
					token := student
					if path == "/api/compare/"+strconv.FormatInt(course.ID, 10) {
						token = staff
					}
					if w := serveGET(srv, token, path); w.Code != http.StatusOK {
						t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
					}
				}
			}
			after := tableDigests(dbs...)
			for name, h := range before {
				if after[name] != h {
					t.Errorf("table %s changed under read-only routes", name)
				}
			}
		})
	}
}

// plantedIntro finds the planted intro-programming course by its title
// word, so the durable site, which keeps no manifest here, finds it too.
func plantedIntro(t *testing.T, s *core.Site) int64 {
	t.Helper()
	var id int64
	s.Catalog.EachCourse(func(c catalog.Course) bool {
		if c.Title == "Introduction to Programming" {
			id = c.ID
			return false
		}
		return true
	})
	if id == 0 {
		t.Fatal("no Introduction to Programming course")
	}
	return id
}

// routeBudgetKB bounds what one warm request of a route allocates at
// Small scale on the memory mono site, handler and JSON encoding
// included: the median of routeBudgetRuns requests through
// Server.ServeHTTP, 10 % above what the route took when its bound was
// set. The course page is the Zipf-head course's (26.3 KB; 34.6 KB
// while it converted and sorted every comment of the course to show
// three, 105.0 KB while that sort probed votes per comparison and every
// read copied its rows), the plan the sample student's (31.4 KB; 35.5
// KB while each entry's quarter conflict check converted every offering
// of the course, 329.2 KB while the plan re-read the student's
// enrolments per quarter).
var routeBudgetKB = map[string]float64{
	"course": 28.9,
	"plan":   34.5,
}

const routeBudgetRuns = 20

// raceDetector is set in a -race build (race_test.go).
var raceDetector bool

// TestRouteAllocBudget pins the bytes per request of the routes in
// routeBudgetKB. It does not run under the race detector, whose
// sync.Pool drops a quarter of what is put back: the pages' fmt and
// JSON buffers then come fresh on most requests.
func TestRouteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a Small-scale site")
	}
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops buffers the budget counts on")
	}
	r := runner(t)
	s := r.Site
	u, ok := s.Community.User(r.Man.SampleStudent)
	if !ok {
		t.Fatal("the sample student has no account")
	}
	srv := server.New(s)
	token := loginAs(t, s, u.Username)
	paths := map[string]string{
		"course": "/api/course/" + strconv.FormatInt(zipfHeadCourse(t, s).ID, 10),
		"plan":   "/api/plan",
	}
	for name, budget := range routeBudgetKB {
		path := paths[name]
		serve := func() {
			if w := serveGET(srv, token, path); w.Code != http.StatusOK {
				t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
			}
		}
		serve() // warm
		runs := make([]allocation, routeBudgetRuns)
		for i := range runs {
			runs[i] = allocated(serve)
		}
		slices.SortFunc(runs, func(a, b allocation) int { return cmp.Compare(a.bytes, b.bytes) })
		kb := float64(runs[len(runs)/2].bytes) / 1024
		t.Logf("%s (%s): %.1f KB a request, budget %.1f KB", name, path, kb, budget)
		if kb > budget {
			t.Errorf("%s allocates %.1f KB a request, budget %.1f KB", name, kb, budget)
		}
	}
}
