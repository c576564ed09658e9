package shard

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// fanoutQuery executes the statement on every shard in parallel and
// gathers the materialized result.
func (s *Stmt) fanoutQuery(args []any) (*sqlmini.Result, error) {
	if s.fanoutErr != nil {
		return nil, s.fanoutErr
	}
	s.c.fanOut.Add(1)
	limit, offset, perWindow, err := s.window(args)
	if err != nil {
		return nil, err
	}
	results, err := s.parQuery(func(i int) (*sqlmini.Result, error) {
		return s.per[i].QueryWindow(perWindow, 0, args...)
	})
	if err != nil {
		return nil, err
	}
	return &sqlmini.Result{Columns: results[0].Columns, Rows: applyWindow(s.merge(results), limit, offset)}, nil
}

// window evaluates the statement's global LIMIT/OFFSET under args and
// the window each shard leg runs with: non-aggregate legs each produce
// limit+offset rows — enough for any global window — while aggregates
// need every group's full partials (perWindow -1).
func (s *Stmt) window(args []any) (limit, offset, perWindow int64, err error) {
	limit, offset, err = s.per[0].WindowValues(args...)
	perWindow = -1
	if limit >= 0 && !s.info.Agg {
		perWindow = limit + offset
	}
	return limit, offset, perWindow, err
}

// merge gathers the per-shard results by the statement's merge
// strategy, counting which one ran.
func (s *Stmt) merge(results []*sqlmini.Result) []relation.Row {
	var rows []relation.Row
	switch {
	case s.info.Agg:
		s.c.mergeCombine.Add(1)
		rows = combineRows(results, s.info.Combine)
		sortRows(rows, s.info.MergeKeys)
	case s.info.Distinct:
		s.c.mergeConcat.Add(1)
		rows = dedupeRows(results)
		sortRows(rows, s.info.MergeKeys)
	case s.info.HasOrder:
		s.c.mergeOrdered.Add(1)
		rows = mergeByOrder(results, s.info.MergeKeys)
	default:
		s.c.mergeConcat.Add(1)
		rows = concatRows(results)
	}
	return rows
}

// parQuery runs one task per shard on a pool of min(shards, workers)
// goroutines and waits for all of them.
func (s *Stmt) parQuery(run func(i int) (*sqlmini.Result, error)) ([]*sqlmini.Result, error) {
	n := s.c.n
	results := make([]*sqlmini.Result, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(s.c.workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// --- merge strategies (materialized) -----------------------------------

func concatRows(results []*sqlmini.Result) []relation.Row {
	total := 0
	for _, r := range results {
		total += len(r.Rows)
	}
	out := make([]relation.Row, 0, total)
	for _, r := range results {
		out = append(out, r.Rows...)
	}
	return out
}

// mergeByOrder k-way merges per-shard results that each arrive sorted
// by keys — the engine's sort contract makes the heads comparable.
func mergeByOrder(results []*sqlmini.Result, keys []sqlmini.MergeKey) []relation.Row {
	total := 0
	heads := make([]int, len(results))
	for _, r := range results {
		total += len(r.Rows)
	}
	out := make([]relation.Row, 0, total)
	for {
		best := -1
		for i, r := range results {
			if heads[i] >= len(r.Rows) {
				continue
			}
			if best < 0 || lessRows(r.Rows[heads[i]], results[best].Rows[heads[best]], keys) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, results[best].Rows[heads[best]])
		heads[best]++
	}
}

func dedupeRows(results []*sqlmini.Result) []relation.Row {
	seen := map[string]bool{}
	var out []relation.Row
	var key []byte
	for _, r := range results {
		for _, row := range r.Rows {
			key = key[:0]
			for _, v := range row {
				key = appendValueKey(key, v)
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			out = append(out, row)
		}
	}
	return out
}

// combineRows merges per-shard partial aggregates: rows with equal
// group keys fold into one, per the statement's combine ops.
func combineRows(results []*sqlmini.Result, ops []sqlmini.CombineOp) []relation.Row {
	idx := map[string]int{}
	var out []relation.Row
	var key []byte
	for _, r := range results {
		for _, row := range r.Rows {
			key = key[:0]
			for i, op := range ops {
				if op == sqlmini.CombineKey {
					key = appendValueKey(key, row[i])
				}
			}
			j, ok := idx[string(key)]
			if !ok {
				idx[string(key)] = len(out)
				out = append(out, row.Clone())
				continue
			}
			dst := out[j]
			for i, op := range ops {
				switch op {
				case sqlmini.CombineSum:
					dst[i] = addValues(dst[i], row[i])
				case sqlmini.CombineMin:
					if dst[i] == nil || (row[i] != nil && relation.Compare(row[i], dst[i]) < 0) {
						dst[i] = row[i]
					}
				case sqlmini.CombineMax:
					if dst[i] == nil || (row[i] != nil && relation.Compare(row[i], dst[i]) > 0) {
						dst[i] = row[i]
					}
				}
			}
		}
	}
	return out
}

// addValues sums COUNT/SUM partials; NULL partials (SUM over an empty
// shard) are identity.
func addValues(a, b relation.Value) relation.Value {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if ai, ok := a.(int64); ok {
		if bi, ok := b.(int64); ok {
			return ai + bi
		}
	}
	return valueFloat(a) + valueFloat(b)
}

func valueFloat(v relation.Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

func lessRows(a, b relation.Row, keys []sqlmini.MergeKey) bool {
	for _, k := range keys {
		cmp := relation.Compare(a[k.Out], b[k.Out])
		if k.Desc {
			cmp = -cmp
		}
		if cmp != 0 {
			return cmp < 0
		}
	}
	return false
}

func sortRows(rows []relation.Row, keys []sqlmini.MergeKey) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool { return lessRows(rows[i], rows[j], keys) })
}

func applyWindow(rows []relation.Row, limit, offset int64) []relation.Row {
	if offset > 0 {
		if offset >= int64(len(rows)) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && limit < int64(len(rows)) {
		rows = rows[:limit]
	}
	return rows
}

// appendValueKey encodes one value for grouping/dedup, normalizing
// integral floats to their integer encoding exactly like the engine's
// join keys, so 7 and 7.0 land in one group.
func appendValueKey(b []byte, v relation.Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, 'n', 0)
	case int64:
		b = append(b, 'i')
		b = strconv.AppendInt(b, x, 10)
		return append(b, 0)
	case float64:
		if integralInt64(x) {
			b = append(b, 'i')
			b = strconv.AppendInt(b, int64(x), 10)
			return append(b, 0)
		}
		b = append(b, 'f')
		b = strconv.AppendUint(b, math.Float64bits(x), 16)
		return append(b, 0)
	case string:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(x)), 10)
		b = append(b, ':')
		b = append(b, x...)
		return append(b, 0)
	case bool:
		if x {
			return append(b, 'b', 1, 0)
		}
		return append(b, 'b', 0, 0)
	}
	return append(b, '?', 0)
}
