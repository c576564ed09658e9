package relation

import "strings"

// TableStats is a point-in-time snapshot of the optimizer statistics a
// table maintains. The underlying counters are kept incrementally by the
// index structures themselves — every insert, update and delete adjusts
// the live-row count and the per-index slot maps — so taking a snapshot
// is O(#indexes), never a scan.
type TableStats struct {
	// Rows is the number of live rows.
	Rows int
	// Distinct maps an indexed column (lower-cased name) to the number
	// of distinct values currently stored in it. Single-column primary
	// keys appear too: every value is unique, so Distinct equals Rows.
	Distinct map[string]int
}

// DistinctOf returns the distinct-value count for a column, reporting
// whether the column has statistics (i.e. is indexed).
func (s TableStats) DistinctOf(col string) (int, bool) {
	n, ok := s.Distinct[strings.ToLower(col)]
	return n, ok
}

// Selectivity estimates the number of rows matching an equality
// predicate on col: Rows/Distinct for indexed columns, and a third of
// the table for columns the statistics know nothing about.
func (s TableStats) Selectivity(col string) float64 {
	if d, ok := s.DistinctOf(col); ok && d > 0 {
		return float64(s.Rows) / float64(d)
	}
	return float64(s.Rows) / 3
}

// Stats snapshots the table's optimizer statistics: the live-row count
// and the distinct-value count of every indexed column. The query
// planner in package sqlmini uses these to pick access paths and hash
// join build sides.
func (t *Table) Stats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d := make(map[string]int, len(t.hash)+1)
	nullKey := string(appendKey(nil, nil))
	for ci, ix := range t.hash {
		if ix == nil {
			continue
		}
		n := len(ix.slots)
		// NULL is not a value: counting its bucket would inflate the
		// distinct estimate on sparse columns and skew selectivity.
		if _, ok := ix.slots[nullKey]; ok {
			n--
		}
		d[strings.ToLower(t.schema.Column(ci).Name)] = n
	}
	if len(t.pk) == 1 {
		d[strings.ToLower(t.schema.Column(t.pk[0]).Name)] = t.live
	}
	return TableStats{Rows: t.live, Distinct: d}
}
