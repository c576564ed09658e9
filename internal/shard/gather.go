package shard

import (
	"sync"
	"sync/atomic"

	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// fanoutQuery executes the statement on every shard in parallel and
// gathers the materialized result. Each leg runs the statement as
// written, so a LIMIT k stops every shard at its k-th row; the merge
// then keeps the first k rows overall.
func (s *Stmt) fanoutQuery(args []any) (*sqlmini.Result, error) {
	if s.fanoutErr != nil {
		return nil, s.fanoutErr
	}
	s.c.fanOut.Add(1)
	limit, err := s.per[0].Limit(args...)
	if err != nil {
		return nil, err
	}
	results, err := s.parQuery(func(i int) (*sqlmini.Result, error) {
		return s.per[i].Query(args...)
	})
	if err != nil {
		return nil, err
	}
	return &sqlmini.Result{Columns: results[0].Columns, Rows: applyLimit(s.merge(results), limit)}, nil
}

// merge gathers the per-shard results by the statement's merge
// strategy, counting which one ran.
func (s *Stmt) merge(results []*sqlmini.Result) []relation.Row {
	if s.info.HasOrder {
		s.c.mergeOrdered.Add(1)
		return mergeByOrder(results, s.info.MergeKeys)
	}
	s.c.mergeConcat.Add(1)
	return concatRows(results)
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

func applyLimit(rows []relation.Row, limit int64) []relation.Row {
	if limit >= 0 && limit < int64(len(rows)) {
		rows = rows[:limit]
	}
	return rows
}
