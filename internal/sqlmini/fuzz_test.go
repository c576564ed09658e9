package sqlmini

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// This file is the differential query-fuzz harness: it generates random
// SELECTs — joins, ranges, ascending and descending ORDER BY, LIMIT,
// GROUP BY with COUNT/AVG, late-bound params — over small seeded tables and
// asserts that whatever plan the cost-based planner picks returns
// exactly what forced full-scan/nested-loop execution returns. As the
// planner's strategy space grows multiplicatively (range scans ×
// descending walks × band/INLJ/hash joins × join chains × elision),
// hand-written goldens cover the shapes we thought of; the fuzzer
// covers their products.
//
// Order discipline: a query's rows compare position-for-position when
// its ORDER BY pins a deterministic order on BOTH paths — a total
// order (the key list ends in a primary key), a single key over one
// table, or a single driver key over a hash/INLJ join, all of which
// break ties in slot order exactly like the stable sort does.
// Band joins emit right matches in probe-key order rather than slot
// order, so band shapes always pin a total order (or go orderless);
// orderless queries compare as multisets and never carry a LIMIT.

// fuzzSchema builds the three-table playground the generator draws
// from. The index layout is chosen so every sort-aware path is
// reachable: Items.K and Peers.K carry ordered indexes (range scans,
// asc/desc elision, elision through a join on K), Bands.AK carries a
// hash index (index nested-loop probes), and Bands.Lo/Hi feed band-join
// bounds.
func fuzzSchema(t testing.TB) *Engine {
	db := relation.NewDB()
	items := db.MustCreate(relation.MustTable("Items", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("K", relation.TypeInt),
		relation.Col("V", relation.TypeInt),
		relation.NotNullCol("Cat", relation.TypeString),
	), relation.WithPrimaryKey("ID"), relation.WithIndex("Cat"), relation.WithOrderedIndex("K")))
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
	), relation.WithPrimaryKey("ID"), relation.WithOrderedIndex("K")))

	// Deterministic data with duplicate keys (join fan-in, sort ties),
	// NULLs (V, W) and overlapping bands.
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
	e := New(db)
	return e
}

// fuzzQB accumulates one generated query; lit renders a value as a
// literal or, half the time, as a late-bound '?' placeholder, so every
// shape also exercises the prepared-statement bind path.
type fuzzQB struct {
	r    *rand.Rand
	args []any
}

func (q *fuzzQB) lit(v any) string {
	if q.r.Intn(2) == 0 {
		q.args = append(q.args, v)
		return "?"
	}
	if s, ok := v.(string); ok {
		return "'" + s + "'"
	}
	return fmt.Sprint(v)
}

// limitSuffix appends a LIMIT, literal or bound (only callers with a
// pinned order use it).
func (q *fuzzQB) limitSuffix() string {
	if q.r.Intn(3) == 0 {
		return ""
	}
	return " LIMIT " + q.lit(int64(q.r.Intn(31)))
}

// genFuzzQuery produces one SELECT of the given shape. exact reports
// whether the two engines must agree row for row (an order-pinning
// ORDER BY is present) or only as multisets.
func genFuzzQuery(r *rand.Rand, shape int) (sql string, args []any, exact bool) {
	q := &fuzzQB{r: r}
	defer func() { args = q.args }()

	switch shape % 7 {
	case 0: // single table, mixed predicates
		var conds []string
		for _, c := range []func() string{
			func() string { return "K >= " + q.lit(int64(r.Intn(25))) },
			func() string {
				lo := r.Intn(20)
				return fmt.Sprintf("K BETWEEN %s AND %s", q.lit(int64(lo)), q.lit(int64(lo+r.Intn(8))))
			},
			func() string { return "Cat = " + q.lit([]string{"ca", "cb", "cc"}[r.Intn(3)]) },
			func() string { return "V >= 0" }, // drops the NULLs
			func() string { return "ID = " + q.lit(int64(r.Intn(95))) },
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
			sql += " ORDER BY K" + q.limitSuffix()
			exact = true
		case 1:
			sql += " ORDER BY K DESC" + q.limitSuffix()
			exact = true
		case 2:
			sql += " ORDER BY V DESC, ID" + q.limitSuffix()
			exact = true
		case 3:
			sql += " ORDER BY K, ID DESC" + q.limitSuffix()
			exact = true
		}
		return

	case 1: // the elision axis: ranges × asc/desc × limit on an ordered key
		tbl, key := "Items", "K"
		if r.Intn(2) == 0 {
			tbl = "Peers"
		}
		sql = fmt.Sprintf(`SELECT * FROM %s`, tbl)
		switch r.Intn(4) {
		case 0:
			sql += " WHERE " + key + " >= " + q.lit(int64(r.Intn(25)))
		case 1:
			sql += " WHERE " + key + " <= " + q.lit(int64(r.Intn(25)))
		case 2:
			lo := r.Intn(20)
			sql += fmt.Sprintf(" WHERE %s BETWEEN %s AND %s", key, q.lit(int64(lo)), q.lit(int64(lo+r.Intn(10))))
		}
		if r.Intn(2) == 0 {
			sql += " ORDER BY " + key
		} else {
			sql += " ORDER BY " + key + " DESC"
		}
		sql += q.limitSuffix()
		return sql, nil, true

	case 2: // equi join on the two ordered K indexes, driver order elided
		sql = `SELECT i.ID, i.K, p.ID, p.W FROM Items i JOIN Peers p ON i.K = p.K`
		switch r.Intn(4) {
		case 0:
			sql += " WHERE i.K >= " + q.lit(int64(r.Intn(25)))
		case 1:
			sql += " WHERE p.W >= 0"
		case 2:
			sql += " WHERE i.Cat = " + q.lit([]string{"ca", "cb", "cc"}[r.Intn(3)])
		}
		switch r.Intn(4) {
		case 0:
			sql += " ORDER BY i.K"
			exact = true
		case 1:
			sql += " ORDER BY i.K, i.ID, p.ID" + q.limitSuffix()
			exact = true
		case 2:
			sql += " ORDER BY i.K DESC, i.ID, p.ID" + q.limitSuffix()
			exact = true
		}
		return

	case 3: // band join: per-left-row range probes
		on := "a.K BETWEEN b.Lo AND b.Hi"
		if r.Intn(3) == 0 {
			on = "a.K BETWEEN b.Lo - 1 AND b.Hi + 1"
		}
		sql = `SELECT b.ID, b.Lo, b.Hi, a.ID, a.K FROM Bands b JOIN Items a ON ` + on
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

	case 4: // equi join: index nested-loop or hash, probe side filtered
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

	case 5: // GROUP BY with COUNT and AVG, over one table or a join
		// AVG sums small integers, exact in any order, so the planner's
		// input order cannot move a bit of it.
		sql = `SELECT Cat, COUNT(*) AS N, AVG(V) AS A, COUNT(V) FROM Items`
		if r.Intn(2) == 0 {
			sql = `SELECT i.Cat, COUNT(*) AS N, AVG(p.K) AS A, COUNT(p.W) FROM Items i JOIN Peers p ON i.K = p.K`
		}
		if r.Intn(2) == 0 {
			sql += " WHERE K >= " + q.lit(int64(r.Intn(25)))
			if strings.Contains(sql, " JOIN ") {
				sql = strings.Replace(sql, "WHERE K", "WHERE i.K", 1)
			}
		}
		sql += " GROUP BY Cat"
		switch r.Intn(3) {
		case 0:
			sql += " ORDER BY Cat" + q.limitSuffix()
			exact = true
		case 1:
			sql += " ORDER BY N DESC, Cat" + q.limitSuffix()
			exact = true
		}
		return

	default: // three-table INNER chain, joined in written order
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
	}
}

// renderRows formats rows for multiset comparison.
func renderRows(rows []relation.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// checkFuzzCase runs one generated query through the planning engine
// (one-shot and prepared) and the forced engine, requiring identical
// results. It returns the planner's Explain output for coverage
// accounting, plus the planned result as the reference for batch-size
// parity checks.
func checkFuzzCase(t testing.TB, e, forced *Engine, sql string, args []any, exact bool) (string, *Result) {
	t.Helper()
	plan, err := e.Query(sql, args...)
	if err != nil {
		t.Fatalf("planned %q %v: %v", sql, args, err)
	}
	naive, err := forced.Query(sql, args...)
	if err != nil {
		t.Fatalf("forced %q %v: %v", sql, args, err)
	}
	if !reflect.DeepEqual(plan.Columns, naive.Columns) {
		t.Fatalf("%q: columns %v vs %v", sql, plan.Columns, naive.Columns)
	}
	if exact {
		if !reflect.DeepEqual(plan.Rows, naive.Rows) {
			t.Fatalf("%q %v: planned and forced rows diverge\nplanned: %v\nforced:  %v", sql, args, plan.Rows, naive.Rows)
		}
	} else if !reflect.DeepEqual(renderRows(plan.Rows), renderRows(naive.Rows)) {
		t.Fatalf("%q %v: planned and forced row multisets diverge\nplanned: %v\nforced:  %v", sql, args, plan.Rows, naive.Rows)
	}
	st, err := e.Prepare(sql)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	prep, err := st.Query(args...)
	if err != nil {
		t.Fatalf("prepared %q %v: %v", sql, args, err)
	}
	if !reflect.DeepEqual(prep, plan) {
		t.Fatalf("%q %v: prepared and one-shot results diverge", sql, args)
	}
	out, err := e.Explain(sql, args...)
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	return out, plan
}

// sameFuzzRows compares a result against the reference under the
// query's order discipline.
func sameFuzzRows(got, ref []relation.Row, exact bool) bool {
	if len(got) == 0 && len(ref) == 0 {
		return true // nil vs allocated-empty both mean "no rows"
	}
	if exact {
		return reflect.DeepEqual(got, ref)
	}
	return reflect.DeepEqual(renderRows(got), renderRows(ref))
}

// checkBatchParity re-runs one generated query at several executor
// batch sizes, through both the materialized Query path and the
// streaming QueryRows path, requiring each to reproduce the reference
// result. Slab boundaries are where vectorized executors break — a row
// straddling a batch edge, an arena reset landing mid-group, a LIMIT
// hitting between dispatches — so every shape the generator knows runs
// at batch 1 (every edge everywhere), 7 (edges misaligned with data),
// and 256 (the shipping default).
func checkBatchParity(t testing.TB, sized []*Engine, ref *Result, sql string, args []any, exact bool) {
	t.Helper()
	for _, be := range sized {
		bn := be.batch()
		got, err := be.Query(sql, args...)
		if err != nil {
			t.Fatalf("batch=%d %q %v: %v", bn, sql, args, err)
		}
		if !reflect.DeepEqual(got.Columns, ref.Columns) {
			t.Fatalf("batch=%d %q: columns %v vs %v", bn, sql, got.Columns, ref.Columns)
		}
		if !sameFuzzRows(got.Rows, ref.Rows, exact) {
			t.Fatalf("batch=%d %q %v: materialized rows diverge\ngot: %v\nref: %v", bn, sql, args, got.Rows, ref.Rows)
		}

		rows, err := be.QueryRows(sql, args...)
		if err != nil {
			t.Fatalf("batch=%d stream %q %v: %v", bn, sql, args, err)
		}
		vals := make([]relation.Value, len(ref.Columns))
		ptrs := make([]any, len(ref.Columns))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		var streamed []relation.Row
		for rows.Next() {
			if err := rows.Scan(ptrs...); err != nil {
				t.Fatalf("batch=%d stream scan %q: %v", bn, sql, err)
			}
			streamed = append(streamed, append(relation.Row(nil), vals...))
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatalf("batch=%d stream %q %v: %v", bn, sql, args, err)
		}
		if !sameFuzzRows(streamed, ref.Rows, exact) {
			t.Fatalf("batch=%d %q %v: streamed rows diverge\ngot: %v\nref: %v", bn, sql, args, streamed, ref.Rows)
		}

		// Early close: reading a prefix and abandoning the rest must
		// neither error nor disturb later queries, at every slab size.
		if len(ref.Rows) > 3 {
			rows, err := be.QueryRows(sql, args...)
			if err != nil {
				t.Fatalf("batch=%d early-close %q: %v", bn, sql, err)
			}
			for i := 0; i < 2 && rows.Next(); i++ {
			}
			rows.Close()
			if err := rows.Err(); err != nil {
				t.Fatalf("batch=%d early-close %q: %v", bn, sql, err)
			}
		}
	}
}

// TestQueryFuzzParity is the deterministic harness run: 600 generated
// queries (well past the 500-per-invocation floor), every one asserted
// planner ≡ ForceScan, with light DML churn so plans replan against
// drifting statistics mid-corpus. It also asserts the corpus actually
// reached the sort-aware operators — a fuzzer that never picks a band
// join proves nothing about band joins.
func TestQueryFuzzParity(t *testing.T) {
	e := fuzzSchema(t)
	forced := e.ForceScan()
	sized := []*Engine{e.WithBatchSize(1), e.WithBatchSize(7), e.WithBatchSize(256)}
	r := rand.New(rand.NewSource(42))

	coverage := map[string]int{}
	churnID := int64(1000)
	for i := 0; i < 600; i++ {
		sql, args, exact := genFuzzQuery(r, i)
		out, ref := checkFuzzCase(t, e, forced, sql, args, exact)
		checkBatchParity(t, sized, ref, sql, args, exact)
		for _, op := range []string{"probe=range(", "scan desc", "elided", "index nested loop", "hash join", "range scan", "vectorized batch="} {
			if strings.Contains(out, op) {
				coverage[op]++
			}
		}
		if i%97 == 0 {
			// The sized handles must label their plans honestly.
			if out, err := sized[1].Explain(sql, args...); err != nil || !strings.Contains(out, "vectorized batch=7") {
				t.Fatalf("batch=7 explain of %q lacks its batch annotation (%v):\n%s", sql, err, out)
			}
		}
		if i%37 == 36 {
			// Churn: insert and delete so statistics drift and cached plans
			// revalidate mid-corpus.
			items := e.DB().MustTable("Items")
			items.MustInsert(relation.Row{churnID, r.Intn(25), r.Intn(40), "cb"})
			if churnID%3 == 0 {
				if err := deleteByKey(items, churnID-2); err != nil {
					t.Fatal(err)
				}
			}
			churnID++
		}
	}
	for _, op := range []string{"probe=range(", "scan desc", "elided", "index nested loop", "hash join", "vectorized batch="} {
		if coverage[op] == 0 {
			t.Errorf("fuzz corpus never produced a plan with %q — generator coverage regressed", op)
		}
	}
	t.Logf("fuzz coverage over 600 queries: %v", coverage)
}

// FuzzPlannerParity is the go-native entry point over the same
// generator: each fuzz input seeds the query RNG, so `go test` runs
// the committed seeds as differential parity cases and
// `go test -fuzz=FuzzPlannerParity` explores further seeds. The engine
// is built once and shared — inputs are read-only queries and the
// engine is safe for concurrent use.
func FuzzPlannerParity(f *testing.F) {
	e := fuzzSchema(f)
	forced := e.ForceScan()
	sized := []*Engine{e.WithBatchSize(1), e.WithBatchSize(7), e.WithBatchSize(256)}
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for shape := 0; shape < 7; shape++ {
			sql, args, exact := genFuzzQuery(r, shape)
			_, ref := checkFuzzCase(t, e, forced, sql, args, exact)
			checkBatchParity(t, sized, ref, sql, args, exact)
		}
	})
}
