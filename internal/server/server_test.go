package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/relation"
	"courserank/internal/wal"
)

func testServer(t *testing.T) (*httptest.Server, *core.Site, *datagen.Manifest) {
	t.Helper()
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	man, err := datagen.Populate(site, datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	t.Cleanup(site.Close)
	return ts, site, man
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// login obtains a session token for a registered directory user.
func login(t *testing.T, ts *httptest.Server, username string) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/api/login", map[string]string{"username": username})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status %d", resp.StatusCode)
	}
	out := decode[map[string]string](t, resp)
	return out["token"]
}

func TestHealth(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if out["ok"] != true {
		t.Errorf("health = %v", out)
	}
}

func TestClosedCommunityGate(t *testing.T) {
	ts, _, _ := testServer(t)
	// No token → 401.
	resp, err := http.Get(ts.URL + "/api/search?q=american")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated search status = %d", resp.StatusCode)
	}
	// Registration requires a directory entry.
	resp = postJSON(t, ts.URL+"/api/register", map[string]string{"username": "intruder"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("intruder register status = %d", resp.StatusCode)
	}
}

func TestSearchAndCloudEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/search?q=american&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if out["total"].(float64) <= 0 {
		t.Errorf("total = %v", out["total"])
	}
	if len(out["cloud"].([]any)) == 0 {
		t.Error("cloud empty")
	}
	// Refinement narrows.
	resp2, err := http.Get(ts.URL + "/api/search?q=american&refine=african+american&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out2 := decode[map[string]any](t, resp2)
	if out2["total"].(float64) >= out["total"].(float64) {
		t.Errorf("refine did not narrow: %v → %v", out["total"], out2["total"])
	}
}

func TestCourseAndPlanEndpoints(t *testing.T) {
	ts, _, man := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(fmt.Sprintf("%s/api/course/%d?token=%s", ts.URL, man.Planted["intro-programming"], token))
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if out["page"] == nil {
		t.Error("missing rendered page")
	}
	resp2, err := http.Get(ts.URL + "/api/plan?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out2 := decode[map[string]any](t, resp2)
	if out2["plan"] == nil {
		t.Error("missing plan")
	}
	// Bad course id.
	resp3, _ := http.Get(ts.URL + "/api/course/99999999?token=" + token)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("missing course status = %d", resp3.StatusCode)
	}
}

func TestReviewEndpoint(t *testing.T) {
	ts, site, man := testServer(t)
	token := login(t, ts, "stu00007")
	u, _ := site.Community.UserByUsername("stu00007")
	before := site.Community.Points(u.ID)
	baseEnrolls := len(site.Planner.Entries(u.ID))
	course := man.Planted["intro-programming"]

	resp := postJSON(t, ts.URL+"/api/review?token="+token, map[string]any{
		"courseId": course, "year": 2008, "term": "Autumn", "grade": "A",
		"text": "exactly as advertised", "rating": 4,
	})
	out := decode[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("review status = %d (%v)", resp.StatusCode, out)
	}
	if out["commentId"].(float64) <= 0 {
		t.Errorf("commentId = %v", out["commentId"])
	}
	// All three writes landed: enrollment, comment, standalone rating.
	if n := len(site.Planner.Entries(u.ID)) - baseEnrolls; n != 1 {
		t.Errorf("new enrollments = %d, want 1", n)
	}
	if _, n := site.Comments.TopByCourse(course, 0); n == 0 {
		t.Error("comment missing")
	}
	if _, n := site.Comments.AvgRating(course); n == 0 {
		t.Error("rating missing")
	}
	// Comment (2) + rating (1) points awarded together.
	if got := site.Community.Points(u.ID) - before; got != 3 {
		t.Errorf("points earned = %d, want 3", got)
	}
	// The transaction counters moved and the workflow committed.
	if st := site.DB.TxStats(); st.Committed == 0 || st.Active != 0 {
		t.Errorf("tx stats after review = %+v", st)
	}

	// A duplicate submission is rejected whole: no second enrollment,
	// no orphan comment, no points.
	before = site.Community.Points(u.ID)
	resp = postJSON(t, ts.URL+"/api/review?token="+token, map[string]any{
		"courseId": course, "year": 2008, "term": "Autumn",
		"text": "double-posted by accident", "rating": 2,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate review status = %d", resp.StatusCode)
	}
	if n := len(site.Planner.Entries(u.ID)) - baseEnrolls; n != 1 {
		t.Errorf("new enrollments after duplicate = %d, want 1", n)
	}
	if got := site.Community.Points(u.ID) - before; got != 0 {
		t.Errorf("points after rejected review = %d, want 0", got)
	}
}

// TestOversizedBodyRefused: a body past the 1 MiB cap is refused with
// 413 before it is read in, writes nothing, and the server goes on
// answering.
func TestOversizedBodyRefused(t *testing.T) {
	ts, site, man := testServer(t)
	token := login(t, ts, "stu00006")
	before := site.Comments.Count()
	comment := map[string]any{
		"courseId": man.Planted["intro-programming"], "year": 2008, "term": "Autumn",
		"text": strings.Repeat("x", 2<<20), "rating": 4,
	}
	resp := postJSON(t, ts.URL+"/api/comment?token="+token, comment)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB comment status = %d, want 413", resp.StatusCode)
	}
	if got := site.Comments.Count(); got != before {
		t.Fatalf("the refused comment was stored: %d comments, want %d", got, before)
	}
	comment["text"] = "a reasonable length"
	resp = postJSON(t, ts.URL+"/api/comment?token="+token, comment)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the request after the refused one: status %d", resp.StatusCode)
	}
}

func TestCommentRateAndPoints(t *testing.T) {
	ts, site, man := testServer(t)
	token := login(t, ts, "stu00005")
	u, _ := site.Community.UserByUsername("stu00005")
	before := site.Community.Points(u.ID)

	resp := postJSON(t, ts.URL+"/api/comment?token="+token, map[string]any{
		"courseId": man.Planted["intro-programming"], "year": 2008, "term": "Autumn",
		"text": "wonderful course", "rating": 5,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("comment status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/rate?token="+token, map[string]any{
		"courseId": man.Planted["intro-programming"], "rating": 5,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rate status = %d", resp.StatusCode)
	}
	// Comment (2) + rating (1); the login point landed before the
	// snapshot was taken.
	got := site.Community.Points(u.ID) - before
	if got != 3 {
		t.Errorf("points earned = %d, want 3", got)
	}
	respP, err := http.Get(ts.URL + "/api/points?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, respP)
	if out["points"].(float64) < 4 {
		t.Errorf("points endpoint = %v", out["points"])
	}
	// Bad rating rejected.
	resp = postJSON(t, ts.URL+"/api/rate?token="+token, map[string]any{
		"courseId": man.Planted["intro-programming"], "rating": 9,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rating status = %d", resp.StatusCode)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/recommend/related-courses?title=Introduction+to+Programming&k=3&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if len(out["rows"].([]any)) == 0 {
		t.Error("no recommendations")
	}
	resp2, _ := http.Get(ts.URL + "/api/recommend/no-such-strategy?token=" + token)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown strategy status = %d", resp2.StatusCode)
	}
}

// TestRecommendHugeK: a k near the top of the int range is just "every
// row" — it answers 200 with exactly what k=1000 returns, and never
// reaches the top-k buffer's allocation with an overflowed size.
func TestRecommendHugeK(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	get := func(k string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/recommend/related-courses?title=Introduction+to+Programming&k=" + k + "&token=" + token)
		if err != nil {
			t.Fatalf("k=%s: %v", k, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("k=%s: status %d", k, resp.StatusCode)
		}
		return fmt.Sprint(decode[map[string]any](t, resp)["rows"])
	}
	want := get("1000")
	if got := get("4611686018427387904"); got != want {
		t.Errorf("k=2^62 rows differ from k=1000:\n got %s\nwant %s", got, want)
	}
}

// TestStudentComesFromTheSession: a ?student= naming somebody else is
// ignored by every strategy route — the caller reads their own rows.
func TestStudentComesFromTheSession(t *testing.T) {
	ts, site, man := testServer(t)
	token := login(t, ts, "stu00002") // not the manifest's sample student
	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path + "token=" + token)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return decode[map[string]any](t, resp)
	}
	other := man.SampleStudent
	theirs, err := site.Strategies.Run(site.Flex, "rated-courses", map[string]any{"student": other, "k": 50})
	if err != nil {
		t.Fatal(err)
	}
	if theirs.Len() == 0 {
		t.Fatal("the other student has no ratings to leak")
	}
	own := get("/api/recommend/rated-courses?k=50&")
	spoofed := get(fmt.Sprintf("/api/recommend/rated-courses?k=50&student=%d&", other))
	if fmt.Sprint(spoofed["rows"]) != fmt.Sprint(own["rows"]) {
		t.Errorf("?student=%d changed the answer:\n got %v\nwant the caller's own %v", other, spoofed["rows"], own["rows"])
	}
	for _, route := range []string{"explain", "analyze"} {
		out := get(fmt.Sprintf("/api/%s/rated-courses?student=%d&", route, other))
		if text := fmt.Sprint(out); strings.Contains(text, fmt.Sprintf("args [%d ", other)) {
			t.Errorf("/api/%s bound the spoofed student %d:\n%s", route, other, text)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/explain/related-courses?title=Introduction+to+Programming&year=2008&k=3&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]string](t, resp)
	plan := out["plan"]
	// The plan must surface both layers: the compiled SQL and the
	// physical access paths the query planner picked underneath it.
	for _, want := range []string{"SQL>", "index probe", "hash join"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// What prints is the tree the engine runs: Figure 5(b)'s selections
	// sit above the one shared nesting of everybody's ratings.
	resp, err = http.Get(ts.URL + "/api/explain/cf-courses?k=3&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	plan = decode[map[string]string](t, resp)["plan"]
	sel, view := strings.Index(plan, "σ[SuID <> ?]"), strings.Index(plan, "matview[ratings-extend]")
	if sel < 0 || view < sel {
		t.Errorf("cf-courses plan does not show the selection above the shared view:\n%s", plan)
	}
	resp2, err := http.Get(ts.URL + "/api/explain/no-such-strategy?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown strategy status = %d", resp2.StatusCode)
	}
}

// TestStatsEndpoint: /api/stats is authenticated, reports the shared
// plan cache, and its counters move when repeated recommendation
// requests hit cached plans.
func TestStatsEndpoint(t *testing.T) {
	ts, site, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated stats status = %d", resp.StatusCode)
	}

	token := login(t, ts, "stu00001")
	site.SQL.ResetCacheStats()
	// Same strategy three times: the first may plan, the rest must hit.
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/api/recommend/related-courses?title=Introduction+to+Programming&k=3&token=" + token)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/api/stats?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	pc, ok := out["planCache"].(map[string]any)
	if !ok {
		t.Fatalf("no planCache in %v", out)
	}
	for _, key := range []string{"hits", "misses", "invalidations", "entries", "hitRate"} {
		if _, ok := pc[key]; !ok {
			t.Errorf("planCache missing %q: %v", key, pc)
		}
	}
	if hits := pc["hits"].(float64); hits == 0 {
		t.Errorf("repeated recommendations produced no cache hits: %v", pc)
	}
	if rate := pc["hitRate"].(float64); rate <= 0.5 {
		t.Errorf("hit rate %v after repeated identical requests", rate)
	}
	if _, ok := out["scale"]; !ok {
		t.Errorf("stats missing scale: %v", out)
	}
	mv, ok := out["matviews"].(map[string]any)
	if !ok {
		t.Fatalf("no matviews in %v", out)
	}
	if _, ok := out["flexMaterialize"].(map[string]any); !ok {
		t.Fatalf("no flexMaterialize in %v", out)
	}
	for _, key := range []string{"views", "hits", "staleHits", "misses", "refreshes", "patches", "invalidations", "errors"} {
		if _, ok := mv[key]; !ok {
			t.Errorf("matviews missing %q: %v", key, mv)
		}
	}
	if mv["staleHits"] != 0.0 {
		t.Errorf("matviews.staleHits = %v; no view serves a stale snapshot", mv["staleHits"])
	}
	if _, ok := out["durability"]; ok {
		t.Errorf("memory-backed site should not report durability: %v", out["durability"])
	}
	if _, ok := out["sharding"]; ok {
		t.Errorf("monolithic site should not report sharding: %v", out["sharding"])
	}
	tx, ok := out["transactions"].(map[string]any)
	if !ok {
		t.Fatalf("no transactions in %v", out)
	}
	for _, key := range []string{"active", "committed", "aborted", "conflicts"} {
		if _, ok := tx[key]; !ok {
			t.Errorf("transactions missing %q: %v", key, tx)
		}
	}
	if active := tx["active"].(float64); active != 0 {
		t.Errorf("idle site reports %v active transactions", active)
	}
}

// TestShardedStatsEndpoint: a sharded site's /api/stats grows a
// sharding section with the shard count, per-shard row totals and the
// routing counters.
func TestShardedStatsEndpoint(t *testing.T) {
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.Populate(site, datagen.Tiny()); err != nil {
		t.Fatal(err)
	}
	if err := site.EnableSharding(2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	t.Cleanup(site.Close)

	// Move the routing counters: an ordered read of the partitioned
	// Comments fans out and merges the shards' sorted streams.
	if _, err := site.Sharded.Query(`SELECT SuID, CourseID, Rating FROM Comments WHERE Rating >= ? ORDER BY Rating DESC LIMIT 5`, 4.0); err != nil {
		t.Fatal(err)
	}

	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/stats?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	sh, ok := out["sharding"].(map[string]any)
	if !ok {
		t.Fatalf("no sharding section in %v", out)
	}
	if sh["shards"].(float64) != 2 {
		t.Errorf("shards = %v, want 2", sh["shards"])
	}
	if rows, ok := sh["rows_per_shard"].([]any); !ok || len(rows) != 2 {
		t.Errorf("rows_per_shard = %v, want one total per shard", sh["rows_per_shard"])
	}
	// The sharding section's key set: two merge kinds, by-order and concat.
	want := []string{"apply_errors", "fan_out", "fast_path", "merge_concat", "merge_ordered",
		"partitioned_tables", "replicated", "rows_per_shard", "shards"}
	if got := keysOf(sh); !reflect.DeepEqual(got, want) {
		t.Errorf("sharding keys = %v, want %v", got, want)
	}
	if sh["fan_out"].(float64) == 0 || sh["merge_ordered"].(float64) == 0 {
		t.Errorf("the ordered read moved no fan-out counters: %v", sh)
	}
	parts, ok := sh["partitioned_tables"].([]any)
	if !ok || len(parts) == 0 {
		t.Errorf("no partitioned tables reported: %v", sh)
	}
}

// TestDurableStatsEndpoint: a durable site's /api/stats grows a
// durability section whose WAL counters reflect the journaled writes.
func TestDurableStatsEndpoint(t *testing.T) {
	site, err := core.NewDurableSite(t.TempDir(), relation.DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.Populate(site, datagen.Tiny()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	t.Cleanup(site.Close)

	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/stats?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	dur, ok := out["durability"].(map[string]any)
	if !ok {
		t.Fatalf("no durability section in %v", out)
	}
	w, ok := dur["wal"].(map[string]any)
	if !ok {
		t.Fatalf("durability missing wal: %v", dur)
	}
	if appends := w["appends"].(float64); appends == 0 {
		t.Errorf("populated durable site reports zero WAL appends: %v", w)
	}
	if dur["policy"] != "sync" {
		t.Errorf("policy = %v, want sync", dur["policy"])
	}
	if ck, ok := dur["checkpoints"].(float64); !ok || ck == 0 {
		t.Errorf("populated durable site reports no checkpoint: %v", dur)
	}
}

// TestViewsAndFeedEndpoints: /api/views lists the registered
// materialized views with their counters, and /api/feed serves a
// department feed off the maintained view — built cold, fresh warm —
// moving the view's hit counters.
func TestViewsAndFeedEndpoints(t *testing.T) {
	ts, site, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/api/views")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated views status = %d", resp.StatusCode)
	}

	token := login(t, ts, "stu00001")
	// Traffic through the view-backed paths: the baseline recommenders'
	// ratings view and the top-rated feed.
	if out := site.Baseline.Popularity(2, 5); len(out) == 0 {
		t.Fatal("no popularity results")
	}
	for i := 0; i < 2; i++ {
		r, err := http.Get(ts.URL + "/api/feed/CS?k=5&token=" + token)
		if err != nil {
			t.Fatal(err)
		}
		feed := decode[map[string]any](t, r)
		entries, ok := feed["entries"].([]any)
		if !ok || len(entries) == 0 {
			t.Fatalf("feed = %v, want entries", feed)
		}
		if want := []string{"built", "fresh"}[i]; feed["served"] != want {
			t.Fatalf("feed read %d served %v, want %s", i, feed["served"], want)
		}
	}

	respV, err := http.Get(ts.URL + "/api/views?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, respV)
	views, ok := out["views"].([]any)
	if !ok || len(views) < 2 {
		t.Fatalf("views = %v, want at least the ratings view and the feed view", out)
	}
	byName := map[string]map[string]any{}
	for _, v := range views {
		m := v.(map[string]any)
		byName[m["name"].(string)] = m
	}
	feed, ok := byName["core/top-rated-by-dept"]
	if !ok {
		t.Fatalf("feed view missing from %v", byName)
	}
	if _, ok := feed["mode"]; ok || feed["hasSnapshot"] != true {
		t.Errorf("feed view entry = %v", feed)
	}
	// One build plus one warm hit from the two feed requests.
	if feed["hits"].(float64) < 1 || feed["refreshes"].(float64) < 1 {
		t.Errorf("feed view counters did not move: %v", feed)
	}
	if _, ok := byName["recommend/ratings-by-student"]; !ok {
		t.Errorf("ratings view missing from %v", byName)
	}
}

func TestLeaderboardAndComponents(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/leaderboard?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("leaderboard status = %d", resp.StatusCode)
	}
	respC, err := http.Get(ts.URL + "/api/components?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	comps := decode[[]map[string]any](t, respC)
	if len(comps) != 13 {
		t.Errorf("components = %d", len(comps))
	}
}

func TestAdvisorEndpoints(t *testing.T) {
	ts, _, man := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/advise/majors?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	fits := decode[[]map[string]any](t, resp)
	if len(fits) == 0 {
		t.Error("no major recommendations")
	}
	resp2, err := http.Get(fmt.Sprintf("%s/api/advise/quarters/%d?token=%s", ts.URL, man.Planted["intro-programming"], token))
	if err != nil {
		t.Fatal(err)
	}
	quarters := decode[[]map[string]any](t, resp2)
	if len(quarters) == 0 {
		t.Error("no quarter recommendations")
	}
	resp3, _ := http.Get(ts.URL + "/api/advise/quarters/99999999?token=" + token)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("missing course status = %d", resp3.StatusCode)
	}
}

func TestCompareEndpointRoleGate(t *testing.T) {
	ts, site, man := testServer(t)
	course := man.Planted["intro-programming"]
	// Students are rejected.
	stu := login(t, ts, "stu00001")
	resp, _ := http.Get(fmt.Sprintf("%s/api/compare/%d?token=%s", ts.URL, course, stu))
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("student compare status = %d", resp.StatusCode)
	}
	// Faculty see the comparison (fac0001 is registered by datagen).
	fac := login(t, ts, "fac0001")
	resp2, err := http.Get(fmt.Sprintf("%s/api/compare/%d?token=%s", ts.URL, course, fac))
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp2)
	if out["AvgRating"] == nil {
		t.Errorf("comparison = %v", out)
	}
	_ = site
}

func TestBearerTokenHeader(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00002")
	req, _ := http.NewRequest("GET", ts.URL+"/api/search?q=american", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bearer auth status = %d", resp.StatusCode)
	}
}
