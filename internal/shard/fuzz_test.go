package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// This file extends the differential query-fuzz harness (see
// sqlmini/fuzz_test.go) across the shard boundary: the same playground
// schema, with Items and Peers partitioned and co-located on K, is
// split over a cluster that follows the base engine, and every
// generated query must return from the cluster exactly what the mono
// engine returns — row for row where the query pins a total order,
// as a multiset otherwise. Mid-corpus DML churn on the base engine
// exercises FollowBase propagation (including shard-key migration)
// under the same differential check.
//
// Order discipline: the sharded merge breaks ties by shard arrival,
// not base slot order, so unlike the mono harness every ORDER BY here
// ends in the driving primary key — a total order both sides must
// realize identically. Two kinds of shape are generated on purpose to
// be REFUSED: unpinned aggregates, which the cluster refuses to fan out
// while the mono engine answers, and LEFT JOINs, which neither parses
// (sqlmini joins are INNER). The harness asserts each refusal.

// shardFuzzBase builds the mono playground with shard keys declared.
func shardFuzzBase(t testing.TB) (*relation.DB, *sqlmini.Engine) {
	t.Helper()
	db := relation.NewDB()
	items := db.MustCreate(relation.MustTable("Items", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("K", relation.TypeInt),
		relation.Col("V", relation.TypeInt),
		relation.NotNullCol("Cat", relation.TypeString),
	), relation.WithPrimaryKey("ID"), relation.WithIndex("Cat"), relation.WithOrderedIndex("K"), relation.WithShardKey("K")))
	bands := db.MustCreate(relation.MustTable("Bands", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("AK", relation.TypeInt),
		relation.NotNullCol("Lo", relation.TypeInt),
		relation.NotNullCol("Hi", relation.TypeInt),
	), relation.WithPrimaryKey("ID"), relation.WithIndex("AK")))
	peers := db.MustCreate(relation.MustTable("Peers", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("K", relation.TypeInt),
		relation.Col("W", relation.TypeFloat),
	), relation.WithPrimaryKey("ID"), relation.WithOrderedIndex("K"), relation.WithShardKey("K")))
	r := rand.New(rand.NewSource(7))
	cats := []string{"ca", "cb", "cc"}
	for i := 0; i < 90; i++ {
		var v any
		if r.Intn(4) != 0 {
			v = int64(r.Intn(40))
		}
		items.MustInsert(relation.Row{i, r.Intn(25), v, cats[r.Intn(3)]})
	}
	for i := 0; i < 150; i++ {
		lo := r.Intn(22)
		bands.MustInsert(relation.Row{i, r.Intn(95), lo, lo + r.Intn(6)})
	}
	for i := 0; i < 70; i++ {
		var w any
		if r.Intn(5) != 0 {
			w = float64(r.Intn(50)) / 10
		}
		peers.MustInsert(relation.Row{i, r.Intn(25), w})
	}
	return db, sqlmini.New(db)
}

type shardFuzzQB struct {
	r    *rand.Rand
	args []any
}

func (q *shardFuzzQB) lit(v any) string {
	if q.r.Intn(2) == 0 {
		q.args = append(q.args, v)
		return "?"
	}
	if s, ok := v.(string); ok {
		return "'" + s + "'"
	}
	return fmt.Sprint(v)
}

// limitSuffix appends a LIMIT, literal or bound, two times in three.
func (q *shardFuzzQB) limitSuffix() string {
	if q.r.Intn(3) == 0 {
		return ""
	}
	return " LIMIT " + q.lit(int64(q.r.Intn(31)))
}

// The refusals a generated shape may expect, as the cluster's error
// text: a fan-out refusal leaves the mono engine answering, a parse
// refusal comes from sqlmini and refuses both.
const (
	refuseFanout = "fan-out unsupported"
	refuseParse  = "sqlmini: LEFT JOIN is not supported: sqlmini joins are INNER"
)

// genShardFuzzQuery produces one SELECT of the given shape. exact
// reports a total-order ORDER BY; refuse, when not empty, is the
// refusal the cluster must return instead of an answer.
func genShardFuzzQuery(r *rand.Rand, shape int) (sql string, args []any, exact bool, refuse string) {
	q := &shardFuzzQB{r: r}
	defer func() { args = q.args }()

	switch shape % 7 {
	case 0: // single partitioned table, mixed predicates, sometimes pinned
		var conds []string
		for _, c := range []func() string{
			func() string { return "K = " + q.lit(int64(r.Intn(25))) }, // shard-key pin: fast path
			func() string { return "K >= " + q.lit(int64(r.Intn(25))) },
			func() string {
				lo := r.Intn(20)
				return fmt.Sprintf("K BETWEEN %s AND %s", q.lit(int64(lo)), q.lit(int64(lo+r.Intn(8))))
			},
			func() string { return "Cat = " + q.lit([]string{"ca", "cb", "cc"}[r.Intn(3)]) },
			func() string { return "V >= 0" }, // drops the NULLs
			func() string { return "K < " + q.lit(int64(r.Intn(25))) },
			func() string { return "V - K > " + q.lit(int64(r.Intn(30)-10)) },
		} {
			if r.Intn(3) == 0 {
				conds = append(conds, c())
			}
		}
		sql = `SELECT ID, K, V, Cat FROM Items`
		if len(conds) > 0 {
			sql += " WHERE " + strings.Join(conds, " AND ")
		}
		switch r.Intn(5) {
		case 0:
			sql += " ORDER BY K, ID" + q.limitSuffix()
			exact = true
		case 1:
			sql += " ORDER BY K DESC, ID" + q.limitSuffix()
			exact = true
		case 2:
			sql += " ORDER BY V DESC, ID" + q.limitSuffix()
			exact = true
		}
		return

	case 1: // ranges × asc/desc × limit over the ordered shard key
		tbl := "Items"
		if r.Intn(2) == 0 {
			tbl = "Peers"
		}
		sql = fmt.Sprintf(`SELECT * FROM %s`, tbl)
		switch r.Intn(4) {
		case 0:
			sql += " WHERE K >= " + q.lit(int64(r.Intn(25)))
		case 1:
			sql += " WHERE K <= " + q.lit(int64(r.Intn(25)))
		case 2:
			lo := r.Intn(20)
			sql += fmt.Sprintf(" WHERE K BETWEEN %s AND %s", q.lit(int64(lo)), q.lit(int64(lo+r.Intn(10))))
		}
		if r.Intn(2) == 0 {
			sql += " ORDER BY K, ID"
		} else {
			sql += " ORDER BY K DESC, ID"
		}
		sql += q.limitSuffix()
		return sql, q.args, true, ""

	case 2: // co-located equi join on the shared shard key
		sql = `SELECT i.ID, i.K, p.ID, p.W FROM Items i JOIN Peers p ON i.K = p.K`
		switch r.Intn(4) {
		case 0:
			sql += " WHERE i.K = " + q.lit(int64(r.Intn(25))) // pins both sides via the class
		case 1:
			sql += " WHERE p.W >= 0"
		case 2:
			sql += " WHERE i.Cat = " + q.lit([]string{"ca", "cb", "cc"}[r.Intn(3)])
		}
		if r.Intn(3) != 0 {
			sql += " ORDER BY i.K, i.ID, p.ID" + q.limitSuffix()
			exact = true
		}
		return

	case 3: // band join against the replicated side; LEFT must not parse
		join := "JOIN"
		if r.Intn(3) == 0 {
			join, refuse = "LEFT JOIN", refuseParse
		}
		on := "a.K BETWEEN b.Lo AND b.Hi"
		if r.Intn(3) == 0 {
			on = "a.K BETWEEN b.Lo - 1 AND b.Hi + 1"
		}
		sql = fmt.Sprintf(`SELECT b.ID, b.Lo, b.Hi, a.ID, a.K FROM Bands b %s Items a ON %s`, join, on)
		switch r.Intn(3) {
		case 0:
			sql += " WHERE b.ID = " + q.lit(int64(r.Intn(160)))
		case 1:
			sql += " WHERE b.AK < " + q.lit(int64(r.Intn(95)))
		}
		if r.Intn(3) != 0 {
			sql += " ORDER BY b.ID, a.ID" + q.limitSuffix()
			exact = true
		}
		return

	case 4: // equi join partitioned × replicated off the shard key
		sql = `SELECT i.ID, i.Cat, b.ID, b.AK FROM Items i JOIN Bands b ON i.ID = b.AK`
		conds := []string{}
		if r.Intn(2) == 0 {
			conds = append(conds, "i.Cat = "+q.lit([]string{"ca", "cb", "cc"}[r.Intn(3)]))
		}
		if r.Intn(3) == 0 {
			conds = append(conds, "i.K < "+q.lit(int64(r.Intn(25))))
		}
		if len(conds) > 0 {
			sql += " WHERE " + strings.Join(conds, " AND ")
		}
		if r.Intn(3) != 0 {
			sql += " ORDER BY i.ID, b.ID" + q.limitSuffix()
			exact = true
		}
		return

	case 5: // three-table chain: co-located pair plus replicated
		sql = `SELECT i.ID, b.ID, p.ID FROM Items i JOIN Bands b ON i.ID = b.AK JOIN Peers p ON i.K = p.K`
		conds := []string{}
		if r.Intn(2) == 0 {
			conds = append(conds, "i.Cat = "+q.lit([]string{"ca", "cb", "cc"}[r.Intn(3)]))
		}
		if r.Intn(2) == 0 {
			conds = append(conds, "p.K >= "+q.lit(int64(r.Intn(25))))
		}
		if len(conds) > 0 {
			sql += " WHERE " + strings.Join(conds, " AND ")
		}
		if r.Intn(4) != 0 {
			sql += " ORDER BY i.ID, b.ID, p.ID" + q.limitSuffix()
			exact = true
		}
		return

	default: // aggregates — answered pinned, refused unpinned — plus the replicated-only route
		if r.Intn(4) == 0 {
			sql = `SELECT ID, Lo, Hi FROM Bands WHERE Lo >= ` + q.lit(int64(r.Intn(22))) + ` ORDER BY ID`
			return sql, q.args, true, ""
		}
		pin := r.Intn(2) == 0
		switch r.Intn(3) {
		case 0:
			sql = `SELECT Cat, COUNT(*), AVG(V), COUNT(V) FROM Items`
			if pin {
				sql += " WHERE K = " + q.lit(int64(r.Intn(25)))
			} else if r.Intn(2) == 0 {
				sql += " WHERE K >= " + q.lit(int64(r.Intn(25)))
			}
			sql += " GROUP BY Cat ORDER BY Cat"
		case 1:
			sql = `SELECT K, COUNT(*) AS N FROM Peers`
			if pin {
				sql += " WHERE K = " + q.lit(int64(r.Intn(25)))
			}
			sql += " GROUP BY K ORDER BY N DESC, K" + q.limitSuffix()
		default:
			sql = `SELECT COUNT(*), AVG(W), COUNT(W) FROM Peers`
			if pin {
				sql += " WHERE K = " + q.lit(int64(r.Intn(25)))
			}
		}
		if !pin {
			refuse = refuseFanout
		}
		return sql, q.args, true, refuse
	}
}

// valClose compares one output value, tolerating the float ulps an AVG
// over a shard's rows in that shard's slot order may differ by from the
// base's; everything else is exact.
func valClose(a, b relation.Value) bool {
	if af, ok := a.(float64); ok {
		if bf, ok := b.(float64); ok {
			d := math.Abs(af - bf)
			return d <= 1e-9*math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
		}
	}
	return relation.Equal(a, b)
}

func rowsClose(a, b []relation.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !valClose(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkShardFuzzCase runs one generated query on the cluster and the
// mono engine and compares under the declared order discipline.
func checkShardFuzzCase(t testing.TB, c *Cluster, e *sqlmini.Engine, sql string, args []any, exact bool, refuse string) {
	t.Helper()
	want, err := e.Query(sql, args...)
	if refuse == refuseParse {
		if err == nil || err.Error() != refuseParse {
			t.Fatalf("mono %q: error %v, want %q", sql, err, refuseParse)
		}
	} else if err != nil {
		t.Fatalf("mono %q %v: %v", sql, args, err)
	}
	got, gerr := c.Query(sql, args...)
	if refuse != "" {
		// What is forbidden is a silently-wrong answer: the cluster must
		// return exactly the refusal the shape was generated for.
		if gerr == nil {
			t.Fatalf("%q: cluster answered a shape it must refuse", sql)
		}
		if !strings.Contains(gerr.Error(), refuse) {
			t.Fatalf("%q: wrong refusal: %v, want %q", sql, gerr, refuse)
		}
		return
	}
	if gerr != nil {
		t.Fatalf("cluster %q %v: %v", sql, args, gerr)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%q: columns %v vs %v", sql, got.Columns, want.Columns)
	}
	if exact {
		if !rowsClose(got.Rows, want.Rows) {
			t.Fatalf("%q %v: sharded and mono rows diverge\nsharded: %v\nmono:    %v", sql, args, got.Rows, want.Rows)
		}
	} else if !reflect.DeepEqual(asMultiset(got.Rows), asMultiset(want.Rows)) {
		t.Fatalf("%q %v: sharded and mono multisets diverge\nsharded: %v\nmono:    %v", sql, args, got.Rows, want.Rows)
	}

}

// TestShardFuzzParity is the deterministic corpus: 420 generated
// queries against a 3-shard cluster following the base, with DML churn
// — inserts, deletes and shard-key migrations — applied to the base
// mid-corpus so FollowBase propagation is differentially checked too.
func TestShardFuzzParity(t *testing.T) {
	db, e := shardFuzzBase(t)
	c, err := Split(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.FollowBase(db)
	items := db.MustTable("Items")
	r := rand.New(rand.NewSource(42))

	churnID := int64(1000)
	for i := 0; i < 420; i++ {
		sql, args, exact, refuse := genShardFuzzQuery(r, i)
		checkShardFuzzCase(t, c, e, sql, args, exact, refuse)
		if i%37 == 36 {
			items.MustInsert(relation.Row{churnID, r.Intn(25), r.Intn(40), "cb"})
			if churnID%3 == 0 {
				if err := deleteWhere(items, "ID", eq(churnID-2)); err != nil {
					t.Fatal(err)
				}
			}
			if churnID%2 == 0 {
				// Shard-key migration: the row must move owners in the shards.
				if err := updateWhere(items, "ID", eq(churnID), "K", int64(r.Intn(25))); err != nil {
					t.Fatal(err)
				}
			}
			churnID++
		}
	}
	st := c.Stats()
	if st.ApplyErrors != 0 {
		t.Fatalf("base-follow propagation errors: %+v", st)
	}
	// The corpus must actually reach every routing and merge path — a
	// fuzzer that never fans out proves nothing about the gather.
	if st.FastPath == 0 || st.Replicated == 0 || st.FanOut == 0 {
		t.Fatalf("routing coverage regressed: %+v", st)
	}
	if st.MergeOrdered == 0 || st.MergeConcat == 0 {
		t.Fatalf("merge coverage regressed: %+v", st)
	}
	t.Logf("shard fuzz routing over 420 queries: fast=%d repl=%d fanout=%d (ordered=%d concat=%d)",
		st.FastPath, st.Replicated, st.FanOut, st.MergeOrdered, st.MergeConcat)
}

// TestShardWindowIsSliceOfUnwindowed is sqlmini's window property across
// the shard boundary: on a 3-shard cluster, `… LIMIT k` is the first k
// rows of what the SAME cluster returns for the statement without a
// LIMIT — every leg now stops at its k-th row instead of handing over
// its whole partition, and a row goal may have changed a leg's join
// algorithm, yet the coordinator must merge the same prefix. Shapes with
// tied sort keys compare against the cluster itself (its tie order is
// its own: shard index, then slot); shapes that pin a total order must
// also agree with the mono engine. Pinned aggregate, GROUP BY and
// un-elided-sort statements are in the list because no early stop may
// apply to them.
func TestShardWindowIsSliceOfUnwindowed(t *testing.T) {
	db, e := shardFuzzBase(t)
	items := db.MustTable("Items")
	for i := 0; i < 700; i++ { // enough rows per shard to cross executor batches
		items.MustInsert(relation.Row{2000 + i, (i * 7) % 25, i % 40, []string{"ca", "cb", "cc"}[i%3]})
	}
	c, err := Split(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		sql   string
		args  []any
		total bool // the ORDER BY ends in a key unique per row
	}{
		{`SELECT ID, K FROM Items WHERE K >= ? ORDER BY K DESC`, []any{int64(3)}, false},
		{`SELECT ID, K FROM Items WHERE K <= ? ORDER BY K`, []any{int64(20)}, false},
		{`SELECT ID, K, Cat FROM Items WHERE V >= 0`, nil, false},
		{`SELECT i.ID, i.K, b.ID FROM Items i JOIN Bands b ON i.ID = b.AK WHERE i.K >= ? ORDER BY i.K DESC`, []any{int64(2)}, false},
		{`SELECT i.ID, i.K, p.ID FROM Items i JOIN Peers p ON i.K = p.K ORDER BY i.K`, nil, false},
		{`SELECT b.ID, a.ID, a.K FROM Bands b JOIN Items a ON a.K BETWEEN b.Lo AND b.Hi WHERE b.ID = ?`, []any{int64(12)}, false},
		{`SELECT ID, K FROM Items WHERE K = 7 ORDER BY ID`, nil, true},
		{`SELECT ID, K FROM Items ORDER BY K DESC, ID`, nil, true},
		{`SELECT ID, V FROM Items WHERE V >= 0 ORDER BY V DESC, ID`, nil, true},
		{`SELECT Cat, COUNT(*), AVG(V) FROM Items WHERE K = ? GROUP BY Cat ORDER BY Cat`, []any{int64(7)}, true},
		{`SELECT V, COUNT(*) AS N FROM Items WHERE K = 3 GROUP BY V ORDER BY N DESC, V`, nil, true},
		{`SELECT Cat FROM Items WHERE K = 11 GROUP BY Cat ORDER BY Cat`, nil, true},
	}
	for _, sh := range shapes {
		all, err := c.Query(sh.sql, sh.args...)
		if err != nil {
			t.Fatalf("%q: %v", sh.sql, err)
		}
		n := len(all.Rows)
		if n == 0 {
			t.Fatalf("%q returns nothing", sh.sql)
		}
		if sh.total {
			mono, err := e.Query(sh.sql, sh.args...)
			if err != nil {
				t.Fatal(err)
			}
			if !rowsClose(all.Rows, mono.Rows) {
				t.Fatalf("%q: sharded and mono rows diverge before any LIMIT", sh.sql)
			}
		}
		for _, k := range []int{0, 1, 2, 3, 8, 9, 10, 31, 32, 33, 255, 256, 257, n, n + 1} {
			want := all.Rows[:min(k, n)]
			literal := fmt.Sprintf("%s LIMIT %d", sh.sql, k)
			bound := append(append([]any{}, sh.args...), int64(k))
			for entry, run := range map[string]func() (*sqlmini.Result, error){
				"literal": func() (*sqlmini.Result, error) { return c.Query(literal, sh.args...) },
				"bound":   func() (*sqlmini.Result, error) { return c.Query(sh.sql+" LIMIT ?", bound...) },
			} {
				got, err := run()
				if err != nil {
					t.Fatalf("%q %s: %v", literal, entry, err)
				}
				if !rowsClose(got.Rows, want) {
					t.Fatalf("%q (%s): %d rows, not the first %d of the cluster's unlimited %d\n got %v\nwant %v",
						literal, entry, len(got.Rows), k, n, got.Rows, want)
				}
			}
		}
	}
	if st := c.Stats(); st.FastPath == 0 || st.MergeOrdered == 0 || st.MergeConcat == 0 {
		t.Fatalf("window corpus missed a route or a merge: %+v", st)
	}
}

// FuzzShardParity is the go-native entry point: each input seeds the
// generator, committed seeds replay as differential cases and
// `go test -fuzz=FuzzShardParity ./internal/shard` explores further.
func FuzzShardParity(f *testing.F) {
	db, e := shardFuzzBase(f)
	c, err := Split(db, 3)
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for shape := 0; shape < 7; shape++ {
			sql, args, exact, refuse := genShardFuzzQuery(r, shape)
			checkShardFuzzCase(t, c, e, sql, args, exact, refuse)
		}
	})
}
