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
// then stops at the k-th row overall.
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
	return &sqlmini.Result{Columns: results[0].Columns, Rows: s.merge(results, limit)}, nil
}

// merge gathers the first limit rows (all of them for a negative limit)
// of the per-shard results by the statement's merge strategy, counting
// which one ran.
func (s *Stmt) merge(results []*sqlmini.Result, limit int64) []relation.Row {
	if s.info.HasOrder {
		s.c.mergeOrdered.Add(1)
		return mergeByOrder(results, s.info.MergeKeys, limit)
	}
	s.c.mergeConcat.Add(1)
	return concatRows(results, limit)
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

// wanted is how many of the per-shard results' rows a LIMIT lets through.
func wanted(results []*sqlmini.Result, limit int64) int {
	total := 0
	for _, r := range results {
		total += len(r.Rows)
	}
	if limit >= 0 && limit < int64(total) {
		return int(limit)
	}
	return total
}

// concatRows appends the shards' rows in shard order, stopping at limit.
func concatRows(results []*sqlmini.Result, limit int64) []relation.Row {
	want := wanted(results, limit)
	out := make([]relation.Row, 0, want)
	for _, r := range results {
		out = append(out, r.Rows[:min(len(r.Rows), want-len(out))]...)
	}
	return out
}

// mergeByOrder k-way merges per-shard results that each arrive sorted
// by keys — the engine's sort contract makes the heads comparable — and
// stops at limit.
func mergeByOrder(results []*sqlmini.Result, keys []sqlmini.MergeKey, limit int64) []relation.Row {
	heads := make([]int, len(results))
	want := wanted(results, limit)
	out := make([]relation.Row, 0, want)
	for len(out) < want {
		best := -1
		for i, r := range results {
			if heads[i] >= len(r.Rows) {
				continue
			}
			if best < 0 || lessRows(r.Rows[heads[i]], results[best].Rows[heads[best]], keys) {
				best = i
			}
		}
		out = append(out, results[best].Rows[heads[best]])
		heads[best]++
	}
	return out
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
