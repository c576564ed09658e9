package shard

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var shardTimeRe = regexp.MustCompile(`in [0-9][^\n]*`)

// TestExplainAnalyzeSingleShard pins the pinned-route report: route
// header plus the owning shard's annotated plan.
func TestExplainAnalyzeSingleShard(t *testing.T) {
	c, _ := testCluster(t, 4)
	st, err := c.Prepare(`SELECT Score FROM Ratings WHERE SuID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, report, err := st.QueryAnalyze(int64(7))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(report, "Route: single shard ") {
		t.Fatalf("missing single-shard route header:\n%s", report)
	}
	if !strings.Contains(report, "index probe Ratings (SuID = 7)") || !strings.Contains(report, "actual rows=") {
		t.Fatalf("missing annotated plan:\n%s", report)
	}
	if !strings.Contains(report, "analyzed: ") {
		t.Fatalf("missing execution footer:\n%s", report)
	}
	// The analyze ran the query for real: rows match the plain path.
	plain, err := st.Query(int64(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(plain.Rows) {
		t.Fatalf("analyzed %d rows, plain %d", len(res.Rows), len(plain.Rows))
	}
}

// TestExplainAnalyzeFanout pins the scatter-gather report: per-shard
// rows/time lines, the merge kind, the short-circuit LIMIT, and the
// merged row accounting.
func TestExplainAnalyzeFanout(t *testing.T) {
	c, e := testCluster(t, 4)
	st, err := c.Prepare(`SELECT RID, Score FROM Ratings ORDER BY RID LIMIT 15`)
	if err != nil {
		t.Fatal(err)
	}
	res, report, err := st.QueryAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(`SELECT RID, Score FROM Ratings ORDER BY RID LIMIT 15`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Fatalf("analyzed fan-out returned %v, mono %v", res.Rows, want.Rows)
	}
	norm := shardTimeRe.ReplaceAllString(report, "in T")
	for _, wantLine := range []string{
		"Route: fan-out over 4 shards, merge=by-order\n",
		"short-circuit: each shard stops at LIMIT 15\n",
		" rows out\n",
		"shard 0 plan:\n",
		"scan Ratings ~28 of 28 rows",
		"actual rows=",
	} {
		if !strings.Contains(norm, wantLine) {
			t.Errorf("report missing %q:\n%s", wantLine, report)
		}
	}
	// One "shard i: N rows in T" line per shard, and the per-shard rows
	// sum to the merged-in count.
	for _, pre := range []string{"  shard 0: ", "  shard 1: ", "  shard 2: ", "  shard 3: "} {
		if !strings.Contains(norm, pre) {
			t.Errorf("report missing per-shard line %q:\n%s", pre, report)
		}
	}
	if !regexp.MustCompile(`merged: \d+ rows in, 15 rows out`).MatchString(norm) {
		t.Errorf("merged accounting line wrong:\n%s", report)
	}
}

// TestExplainAnalyzeAggregateFanout: an aggregate never fans out — the
// analyzed run refuses it like Query does and runs no shard — while
// the same aggregate pinned to one shard analyzes there, with no merge.
func TestExplainAnalyzeAggregateFanout(t *testing.T) {
	c, e := testCluster(t, 4)
	st, err := c.Prepare(`SELECT SuID, COUNT(*), AVG(Score) FROM Ratings GROUP BY SuID`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.QueryAnalyze(); err == nil || !strings.Contains(err.Error(), "an aggregate runs only when pinned to one shard") {
		t.Fatalf("aggregate fan-out analyzed: %v", err)
	}
	if fan := c.Stats().FanOut; fan != 0 {
		t.Fatalf("the refused aggregate counted %d fan-outs", fan)
	}
	const pinned = `SELECT SuID, COUNT(*), AVG(Score) FROM Ratings WHERE SuID = ? GROUP BY SuID`
	pst, err := c.Prepare(pinned)
	if err != nil {
		t.Fatal(err)
	}
	got, report, err := pst.QueryAnalyze(int64(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(pinned, int64(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("pinned aggregate: %v, mono %v", got.Rows, want.Rows)
	}
	if !strings.HasPrefix(report, "Route: single shard ") || strings.Contains(report, "merge") || strings.Contains(report, "short-circuit") {
		t.Fatalf("pinned aggregate report:\n%s", report)
	}
}

// TestExplainAnalyzeRejectsDML: a data-changing statement never reaches
// QueryAnalyze — the cluster refuses to prepare it, since SQL is
// read-only.
func TestExplainAnalyzeRejectsDML(t *testing.T) {
	c, _ := testCluster(t, 2)
	if st, err := c.Prepare(`DELETE FROM Points WHERE Pts < 0`); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Prepare(DELETE) = %v, %v; want the read-only refusal", st, err)
	}
}
