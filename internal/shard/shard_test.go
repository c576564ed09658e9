package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// testBase builds a small CourseRank-shaped base: a replicated catalog
// table (Students) and two fact tables partitioned and co-located on
// SuID (Ratings, Points), populated deterministically through relation
// (SQL is read-only).
func testBase(t testing.TB) (*relation.DB, *sqlmini.Engine) {
	t.Helper()
	db := relation.NewDB()
	students := db.MustCreate(relation.MustTable("Students", relation.NewSchema(
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.NotNullCol("Name", relation.TypeString),
	), relation.WithPrimaryKey("SuID")))
	ratings := db.MustCreate(relation.MustTable("Ratings", relation.NewSchema(
		relation.NotNullCol("RID", relation.TypeInt),
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.NotNullCol("CID", relation.TypeInt),
		relation.Col("Score", relation.TypeInt),
	), relation.WithPrimaryKey("RID"), relation.WithIndex("SuID"), relation.WithShardKey("SuID")))
	points := db.MustCreate(relation.MustTable("Points", relation.NewSchema(
		relation.NotNullCol("PID", relation.TypeInt),
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.NotNullCol("Pts", relation.TypeInt),
	), relation.WithPrimaryKey("PID"), relation.WithIndex("SuID"), relation.WithShardKey("SuID")))
	r := rand.New(rand.NewSource(11))
	for su := 0; su < 20; su++ {
		students.MustInsert(relation.Row{su, fmt.Sprintf("s%02d", su)})
	}
	for i := 0; i < 120; i++ {
		var score any
		if r.Intn(5) != 0 {
			score = int64(1 + r.Intn(5))
		}
		ratings.MustInsert(relation.Row{i, r.Intn(20), r.Intn(8), score})
	}
	for i := 0; i < 40; i++ {
		points.MustInsert(relation.Row{i, r.Intn(20), r.Intn(100)})
	}
	return db, sqlmini.New(db)
}

// where is a row predicate on one column of tbl; deleteWhere and
// updateWhere write through it, standing in for SQL DML.
func where(tbl *relation.Table, col string, keep func(relation.Value) bool) func(relation.Row) bool {
	i := tbl.Schema().MustIndex(col)
	return func(r relation.Row) bool { return keep(r[i]) }
}

func eq(v any) func(relation.Value) bool {
	nv, _ := relation.Normalize(v)
	return func(x relation.Value) bool { return relation.Equal(x, nv) }
}

func deleteWhere(tbl *relation.Table, col string, keep func(relation.Value) bool) error {
	_, err := tbl.DeleteWhere(where(tbl, col, keep))
	return err
}

// updateWhere sets column set to v in every row where col matches.
func updateWhere(tbl *relation.Table, col string, keep func(relation.Value) bool, set string, v any) error {
	si := tbl.Schema().MustIndex(set)
	_, err := tbl.UpdateWhere(where(tbl, col, keep), func(r relation.Row) relation.Row {
		r[si] = v
		return r
	})
	return err
}

func testCluster(t testing.TB, n int) (*Cluster, *sqlmini.Engine) {
	t.Helper()
	db, e := testBase(t)
	c, err := Split(db, n)
	if err != nil {
		t.Fatal(err)
	}
	return c, e
}

func asMultiset(rows []relation.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// checkAgainstMono runs one SELECT on both cluster and mono engine and
// compares, exactly when exact, else as multisets.
func checkAgainstMono(t *testing.T, c *Cluster, e *sqlmini.Engine, exact bool, sql string, args ...any) {
	t.Helper()
	got, err := c.Query(sql, args...)
	if err != nil {
		t.Fatalf("cluster %q: %v", sql, err)
	}
	want, err := e.Query(sql, args...)
	if err != nil {
		t.Fatalf("mono %q: %v", sql, err)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%q: columns %v vs %v", sql, got.Columns, want.Columns)
	}
	if exact {
		if !reflect.DeepEqual(asMultiset(got.Rows), asMultiset(want.Rows)) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%q: rows diverge\ncluster: %v\nmono:    %v", sql, got.Rows, want.Rows)
		}
	} else if !reflect.DeepEqual(asMultiset(got.Rows), asMultiset(want.Rows)) {
		t.Fatalf("%q: row multisets diverge\ncluster: %v\nmono:    %v", sql, got.Rows, want.Rows)
	}
}

func TestSplitPlacement(t *testing.T) {
	c, _ := testCluster(t, 4)
	// Replicated tables carry a full copy everywhere.
	for i := 0; i < c.Shards(); i++ {
		if n := c.DB(i).MustTable("Students").Len(); n != 20 {
			t.Fatalf("shard %d Students = %d rows, want 20", i, n)
		}
	}
	// Partitioned tables are a disjoint union, each row on its owner.
	total := 0
	for i := 0; i < c.Shards(); i++ {
		tb := c.DB(i).MustTable("Ratings")
		total += tb.Len()
		shard := i
		tb.Scan(func(_ int, row relation.Row) bool {
			if own := c.ownerOf(row[1]); own != shard {
				t.Fatalf("Ratings row %v on shard %d, owner %d", row, shard, own)
			}
			return true
		})
	}
	if total != 120 {
		t.Fatalf("Ratings rows across shards = %d, want 120", total)
	}
	st := c.Stats()
	if st.Shards != 4 || len(st.RowsPerShard) != 4 {
		t.Fatalf("stats shape: %+v", st)
	}
	if !reflect.DeepEqual(st.PartitionedTables, []string{"Points", "Ratings"}) {
		t.Fatalf("partitioned tables: %v", st.PartitionedTables)
	}
}

func TestSingleShardRouting(t *testing.T) {
	c, e := testCluster(t, 4)
	// Pinned by placeholder: the canonical fast path.
	for su := int64(0); su < 20; su++ {
		checkAgainstMono(t, c, e, true, `SELECT RID, CID, Score FROM Ratings WHERE SuID = ? ORDER BY RID`, su)
	}
	// Pinned by literal, and transitively through a join equality class.
	checkAgainstMono(t, c, e, true, `SELECT RID FROM Ratings WHERE SuID = 7 ORDER BY RID`)
	checkAgainstMono(t, c, e, true,
		`SELECT r.RID, p.Pts FROM Ratings r JOIN Points p ON r.SuID = p.SuID WHERE p.SuID = ? ORDER BY r.RID, p.PID`, int64(3))
	st := c.Stats()
	if st.FanOut != 0 {
		t.Fatalf("pinned queries fanned out: %+v", st)
	}
	if st.FastPath != 22 {
		t.Fatalf("fast path count = %d, want 22", st.FastPath)
	}
	// Replicated-only statements round-robin across shards.
	for i := 0; i < 8; i++ {
		checkAgainstMono(t, c, e, true, `SELECT Name FROM Students WHERE SuID = ? ORDER BY Name`, int64(i))
	}
	if st := c.Stats(); st.Replicated != 8 || st.FanOut != 0 {
		t.Fatalf("replicated routing: %+v", st)
	}
	out, err := c.Explain(`SELECT RID FROM Ratings WHERE SuID = ?`, int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "single shard") || !strings.Contains(out, "shard key pinned") {
		t.Fatalf("explain lacks routing line:\n%s", out)
	}
}

func TestFanoutMerges(t *testing.T) {
	c, e := testCluster(t, 4)
	// Unordered scatter: concat.
	checkAgainstMono(t, c, e, false, `SELECT RID, SuID FROM Ratings WHERE Score >= ?`, int64(3))
	// Ordered scatter: per-shard sorted streams k-way merged, the
	// global LIMIT applied after (ORDER BY ends in the PK, so the order
	// is total and the comparison exact).
	checkAgainstMono(t, c, e, true, `SELECT RID, SuID, Score FROM Ratings ORDER BY Score DESC, RID LIMIT 13`)
	checkAgainstMono(t, c, e, true, `SELECT RID, CID FROM Ratings WHERE CID < 6 ORDER BY CID, RID`)
	// An ORDER BY key named by its output alias merges too.
	checkAgainstMono(t, c, e, true, `SELECT RID AS R, Score - 1 AS S FROM Ratings WHERE Score >= 2 ORDER BY S, R LIMIT 9`)
	// Co-located join fans out shard-locally.
	checkAgainstMono(t, c, e, false,
		`SELECT r.RID, p.PID FROM Ratings r JOIN Points p ON r.SuID = p.SuID`)
	// Partitioned × replicated join is always legal.
	checkAgainstMono(t, c, e, true,
		`SELECT s.Name, r.RID FROM Ratings r JOIN Students s ON r.SuID = s.SuID ORDER BY r.RID`)
	st := c.Stats()
	if st.MergeConcat == 0 || st.MergeOrdered == 0 {
		t.Fatalf("merge tallies incomplete: %+v", st)
	}
	out, err := c.Explain(`SELECT RID, SuID, Score FROM Ratings ORDER BY Score DESC, RID LIMIT 13`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fan-out over 4 shards, merge=by-order") {
		t.Fatalf("explain lacks merge strategy:\n%s", out)
	}
}

func TestFanoutRefusals(t *testing.T) {
	c, e := testCluster(t, 4)
	refused := func(sql, why string) {
		t.Helper()
		_, err := c.Query(sql)
		if err == nil || !strings.Contains(err.Error(), why) {
			t.Fatalf("%q: error %v, want %q", sql, err, why)
		}
	}
	// No aggregate fans out: the coordinator has no merge for partials.
	const pinOnly = "fan-out unsupported: an aggregate runs only when pinned to one shard"
	refused(`SELECT CID, AVG(Score) FROM Ratings GROUP BY CID`, pinOnly)
	refused(`SELECT CID, COUNT(*) FROM Ratings GROUP BY CID ORDER BY CID`, pinOnly)
	refused(`SELECT COUNT(*) FROM Ratings`, pinOnly)
	refused(`SELECT SuID FROM Ratings GROUP BY SuID`, pinOnly)
	refused(`SELECT RID FROM Ratings ORDER BY Score`, "not an output column")
	refused(`SELECT RID, Score + 1 AS S FROM Ratings ORDER BY Score + 1`, "an expression the projection does not output")
	refused(`SELECT r.RID, p.PID FROM Ratings r JOIN Points p ON r.CID = p.Pts`, "not co-located")

	// Every refused shape still answers when pinned to one shard.
	checkAgainstMono(t, c, e, true, `SELECT AVG(Score) FROM Ratings WHERE SuID = ?`, int64(4))
	checkAgainstMono(t, c, e, true,
		`SELECT s.SuID, r.RID FROM Students s JOIN Ratings r ON s.SuID = r.SuID WHERE s.SuID = ? ORDER BY s.SuID, r.RID`, int64(9))
	checkAgainstMono(t, c, e, true, `SELECT COUNT(*) FROM Ratings WHERE SuID = ? GROUP BY SuID`, int64(4))
	checkAgainstMono(t, c, e, true, `SELECT CID, COUNT(*), AVG(Score) FROM Ratings WHERE SuID = 7 GROUP BY CID ORDER BY CID`)
	if st := c.Stats(); st.FanOut != 0 {
		t.Fatalf("refused statements counted as fan-outs: %+v", st)
	}
}

// TestReadOnlyRefusesWrites: the cluster runs SELECTs only — writes go
// to the base database and reach the shards through FollowBase — so
// preparing, querying or explaining a data-changing or DDL statement
// returns sqlmini's read-only error and touches no shard.
func TestReadOnlyRefusesWrites(t *testing.T) {
	c, _ := testCluster(t, 3)
	for _, q := range []string{
		`INSERT INTO Ratings VALUES (500, 7, 3, 5)`,
		`UPDATE Ratings SET Score = 1 WHERE SuID = 7`,
		`DELETE FROM Ratings WHERE Score = 1`,
		`CREATE TABLE Tags (Tag TEXT NOT NULL)`,
	} {
		kw := strings.Fields(q)[0]
		want := "sqlmini: " + kw + " is not supported: sqlmini is read-only, write through relation.Table or relation.Tx"
		_, errPrepare := c.Prepare(q)
		_, errQuery := c.Query(q)
		_, errExplain := c.Explain(q)
		for name, err := range map[string]error{"Prepare": errPrepare, "Query": errQuery, "Explain": errExplain} {
			if err == nil || err.Error() != want {
				t.Errorf("Cluster.%s(%s) = %v, want %q", name, kw, err, want)
			}
		}
	}
	res, err := c.Query(`SELECT RID FROM Ratings`)
	if err != nil || len(res.Rows) != 120 {
		t.Fatalf("Ratings after refused writes: %v %v, want 120 rows", res, err)
	}
	for i := 0; i < c.Shards(); i++ {
		if _, ok := c.DB(i).Table("Tags"); ok {
			t.Fatalf("refused CREATE TABLE reached shard %d", i)
		}
	}
}

// TestRefusesOutsideDialect is sqlmini's dialect refusal across the
// cluster: an outer, cross or natural join, or an operator, keyword or
// function outside the dialect, fails to prepare with sqlmini's error,
// naming it, from every cluster entry point and on every shard's engine
// — whether it would have pinned one shard or fanned out — and neither
// the base nor any shard changes.
func TestRefusesOutsideDialect(t *testing.T) {
	db, _ := testBase(t)
	c, err := Split(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	dbs := []*relation.DB{db}
	for i := 0; i < c.Shards(); i++ {
		dbs = append(dbs, c.DB(i))
	}
	versions := func() []map[string]uint64 {
		var out []map[string]uint64
		for _, d := range dbs {
			m := map[string]uint64{}
			for _, name := range d.Names() {
				m[name] = d.MustTable(name).Version()
			}
			out = append(out, m)
		}
		return out
	}
	const joins = " JOIN is not supported: sqlmini joins are INNER"
	const dialect = " is not supported: it is outside sqlmini's dialect"
	before := versions()
	for _, q := range []struct{ word, why, sql string }{
		{"LEFT", joins, `SELECT s.SuID, r.RID FROM Students s LEFT JOIN Ratings r ON s.SuID = r.SuID`},
		{"LEFT", joins, `SELECT s.SuID, r.RID FROM Students s LEFT OUTER JOIN Ratings r ON s.SuID = r.SuID WHERE s.SuID = 9`},
		{"RIGHT", joins, `SELECT * FROM Students RIGHT JOIN Ratings ON RIGHT.SuID = Ratings.SuID`},
		{"FULL", joins, `SELECT * FROM Ratings r FULL JOIN Points p ON r.SuID = p.SuID`},
		{"CROSS", joins, `SELECT * FROM Ratings CROSS JOIN Students`},
		{"OUTER", joins, `SELECT * FROM Ratings r OUTER JOIN Points p ON r.SuID = p.SuID`},
		{"NATURAL", joins, `SELECT * FROM Ratings NATURAL JOIN Points`},
		{"OR", dialect, `SELECT RID FROM Ratings WHERE SuID = 7 OR SuID = 8`},
		{"NOT", dialect, `SELECT RID FROM Ratings WHERE NOT Score = 1`},
		{"NOT", dialect, `SELECT RID FROM Ratings WHERE SuID = 7 AND Score NOT BETWEEN 1 AND 2`},
		{"IN", dialect, `SELECT RID FROM Ratings WHERE SuID IN (7, 8)`},
		{"IS", dialect, `SELECT RID FROM Ratings WHERE SuID = 7 AND Score IS NULL`},
		{"LIKE", dialect, `SELECT SuID FROM Students WHERE Name LIKE 's0%'`},
		{"CASE", dialect, `SELECT CASE WHEN Score > 3 THEN 1 ELSE 0 END FROM Ratings WHERE SuID = 7`},
		{"DISTINCT", dialect, `SELECT DISTINCT CID FROM Ratings`},
		{"DISTINCT", dialect, `SELECT COUNT(DISTINCT CID) FROM Ratings WHERE SuID = 7`},
		{"HAVING", dialect, `SELECT CID, COUNT(*) FROM Ratings WHERE SuID = 7 GROUP BY CID HAVING COUNT(*) > 1`},
		{"OFFSET", dialect, `SELECT RID FROM Ratings ORDER BY RID LIMIT 5 OFFSET 3`},
		{"SUM", dialect, `SELECT SUM(Score) FROM Ratings WHERE SuID = 7`},
		{"MIN", dialect, `SELECT CID, MIN(Score) FROM Ratings GROUP BY CID`},
		{"MAX", dialect, `SELECT MAX(Pts) FROM Points`},
		{"LOWER", dialect, `SELECT LOWER(Name) FROM Students`},
		{"UPPER", dialect, `SELECT UPPER(Name) FROM Students`},
		{"LENGTH", dialect, `SELECT LENGTH(Name) FROM Students`},
		{"ABS", dialect, `SELECT ABS(Score) FROM Ratings`},
		{"ROUND", dialect, `SELECT ROUND(Score) FROM Ratings`},
		{"COALESCE", dialect, `SELECT COALESCE(Score, 0) FROM Ratings WHERE SuID = 7`},
		{"SUBSTR", dialect, `SELECT SUBSTR(Name, 1, 2) FROM Students`},
		{"||", dialect, `SELECT Name || '!' FROM Students`},
		{"*", dialect, `SELECT Score * 2 FROM Ratings`},
		{"/", dialect, `SELECT RID FROM Ratings WHERE Score / 2 = 1`},
		{"%", dialect, `SELECT RID FROM Ratings WHERE RID % 2 = 0`},
	} {
		want := "sqlmini: " + q.word + q.why
		st, errPrepare := c.Prepare(q.sql)
		if st != nil {
			t.Errorf("Cluster.Prepare(%s) returned a statement", q.sql)
		}
		_, errQuery := c.Query(q.sql)
		_, errExplain := c.Explain(q.sql)
		errs := map[string]error{"Cluster.Prepare": errPrepare, "Cluster.Query": errQuery, "Cluster.Explain": errExplain}
		for i := 0; i < c.Shards(); i++ {
			_, errs[fmt.Sprintf("shard %d ExplainAnalyze", i)] = c.Engine(i).ExplainAnalyze(q.sql)
		}
		for name, err := range errs {
			if err == nil || err.Error() != want {
				t.Errorf("%s(%s) = %v, want %q", name, q.sql, err, want)
			}
		}
	}
	if after := versions(); !reflect.DeepEqual(after, before) {
		t.Errorf("refused statements changed the base or a shard: %v, want %v", after, before)
	}
	if st := c.Stats(); st.FastPath+st.Replicated+st.FanOut != 0 {
		t.Errorf("refused statements were routed: %+v", st)
	}
}

// TestShardedDML: the cluster's writes are the base's. A row inserted
// into a partitioned base table lands on its owner shard only, a
// replicated-table insert reaches every shard, and a pinned update and
// a predicate delete read back through the cluster like on the base.
func TestShardedDML(t *testing.T) {
	db, _ := testBase(t)
	c, err := Split(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.FollowBase(db)
	ratings := db.MustTable("Ratings")
	ratings.MustInsert(relation.Row{500, 7, 3, 5})
	owner := c.ownerOf(int64(7))
	for i := 0; i < c.Shards(); i++ {
		res, err := c.Engine(i).Query(`SELECT RID FROM Ratings WHERE RID = 500`)
		if err != nil {
			t.Fatal(err)
		}
		if want := i == owner; (len(res.Rows) == 1) != want {
			t.Fatalf("shard %d has row: %v, owner %d", i, res.Rows, owner)
		}
	}
	if err := updateWhere(ratings, "SuID", eq(7), "Score", int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := deleteWhere(ratings, "Score", eq(1)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`SELECT RID FROM Ratings WHERE SuID = 7`, `SELECT RID FROM Ratings WHERE Score = 1`} {
		res, err := c.Query(q)
		if err != nil || len(res.Rows) != 0 {
			t.Fatalf("%s: rows survive the base delete: %v %v", q, res, err)
		}
	}
	db.MustTable("Students").MustInsert(relation.Row{20, "s20"})
	for i := 0; i < c.Shards(); i++ {
		if n := c.DB(i).MustTable("Students").Len(); n != 21 {
			t.Fatalf("shard %d Students = %d, want 21", i, n)
		}
	}
	if st := c.Stats(); st.ApplyErrors != 0 {
		t.Fatalf("propagation errors: %+v", st)
	}
}

func TestFollowBase(t *testing.T) {
	db, e := testBase(t)
	c, err := Split(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.FollowBase(db)
	ratings, points := db.MustTable("Ratings"), db.MustTable("Points")
	ratings.MustInsert(relation.Row{800, 12, 2, 4})
	for _, err := range []error{
		updateWhere(ratings, "CID", eq(3), "Score", int64(5)),
		// Key migration: the base update moves rows between shard owners.
		updateWhere(ratings, "SuID", eq(2), "SuID", int64(19)),
		deleteWhere(ratings, "Score", func(v relation.Value) bool { return v == nil }),
		deleteWhere(points, "Pts", func(v relation.Value) bool { return v.(int64) < 10 }),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	db.MustTable("Students").MustInsert(relation.Row{21, "s21"})

	for _, q := range []string{
		`SELECT RID, SuID, CID, Score FROM Ratings ORDER BY RID`,
		`SELECT SuID, Name FROM Students ORDER BY SuID`,
		`SELECT PID, SuID, Pts FROM Points ORDER BY PID`,
	} {
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("cluster %q: %v", q, err)
		}
		want, err := e.Query(q)
		if err != nil {
			t.Fatalf("mono %q: %v", q, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%q: shards diverged from base\ncluster: %v\nbase:    %v", q, got.Rows, want.Rows)
		}
	}
	// Migrated rows must sit on their new owners.
	for i := 0; i < c.Shards(); i++ {
		shard := i
		c.DB(i).MustTable("Ratings").Scan(func(_ int, row relation.Row) bool {
			if own := c.ownerOf(row[1]); own != shard {
				t.Fatalf("row %v on shard %d, owner %d", row, shard, own)
			}
			return true
		})
	}
	if st := c.Stats(); st.ApplyErrors != 0 {
		t.Fatalf("propagation errors: %+v", st)
	}
}

// TestFollowBaseDetectsSplitWindowWrites: a write landing between
// Split's copy and FollowBase attaching observers violates the
// quiescence contract — the shards silently miss the row — and must
// surface as divergence in ApplyErrors rather than pass unnoticed.
func TestFollowBaseDetectsSplitWindowWrites(t *testing.T) {
	db, _ := testBase(t)
	c, err := Split(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	db.MustTable("Ratings").MustInsert(relation.Row{900, 3, 1, 2})
	c.FollowBase(db)
	if st := c.Stats(); st.ApplyErrors == 0 {
		t.Fatalf("split-window write went undetected: %+v", st)
	}
}

// TestIntegralFloatKeyNormalization: integral floats inside int64
// range place like the equal integer; outside that range the
// float-to-int conversion would be implementation-defined, so the float
// is hashed as a float and placement stays platform-independent.
func TestIntegralFloatKeyNormalization(t *testing.T) {
	c, _ := testCluster(t, 4)
	for _, n := range []int64{7, -7, math.MinInt64} { // MinInt64 is representable
		if c.ownerOf(float64(n)) != c.ownerOf(n) {
			t.Fatalf("%d.0 and %d place on different shards", n, n)
		}
	}
	if !integralInt64(math.Ldexp(-1, 63)) || integralInt64(2.5) {
		t.Fatal("integral-float test misclassifies -2^63 or 2.5")
	}
	for _, huge := range []float64{math.Ldexp(1, 63), -math.Ldexp(1, 64), 1e300} {
		if integralInt64(huge) {
			t.Fatalf("%g treated as an int64", huge)
		}
		if o := c.ownerOf(huge); o < 0 || o >= c.Shards() {
			t.Fatalf("%g owner %d out of range", huge, o)
		}
	}
}

func TestSingleShardClusterMatchesMono(t *testing.T) {
	// n=1 is the degenerate cluster: every route lands on shard 0 and
	// every answer must equal the mono engine's bit for bit.
	c, e := testCluster(t, 1)
	checkAgainstMono(t, c, e, true, `SELECT RID, SuID, Score FROM Ratings ORDER BY Score DESC, RID LIMIT 7`)
	checkAgainstMono(t, c, e, true, `SELECT CID, COUNT(*), AVG(Score) FROM Ratings WHERE SuID = 3 GROUP BY CID ORDER BY CID`)
	checkAgainstMono(t, c, e, false, `SELECT r.RID, p.PID FROM Ratings r JOIN Points p ON r.SuID = p.SuID`)
}
