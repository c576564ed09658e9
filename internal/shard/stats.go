package shard

// Stats is a point-in-time snapshot of the cluster's routing counters
// and per-shard placement, served under /api/stats.
type Stats struct {
	Shards int `json:"shards"`

	// Routing outcomes.
	FastPath   uint64 `json:"fast_path"`  // single-shard, pinned by shard key
	Replicated uint64 `json:"replicated"` // single-shard, round-robin (no partitioned table)
	FanOut     uint64 `json:"fan_out"`    // scattered to every shard

	// Merge strategy tallies for fan-outs.
	MergeOrdered uint64 `json:"merge_ordered"`
	MergeConcat  uint64 `json:"merge_concat"`

	// Base-follow propagation failures (shards diverged from base).
	ApplyErrors uint64 `json:"apply_errors"`

	// Placement snapshot.
	RowsPerShard      []int    `json:"rows_per_shard"`
	PartitionedTables []string `json:"partitioned_tables"`
}

// Stats snapshots the routing counters and per-shard row totals.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Shards:       c.n,
		FastPath:     c.fastPath.Load(),
		Replicated:   c.replicated.Load(),
		FanOut:       c.fanOut.Load(),
		MergeOrdered: c.mergeOrdered.Load(),
		MergeConcat:  c.mergeConcat.Load(),
		ApplyErrors:  c.applyErrors.Load(),
		RowsPerShard: make([]int, c.n),
	}
	for _, name := range c.dbs[0].Names() {
		if _, ok := c.shardKeyOf(name); ok {
			st.PartitionedTables = append(st.PartitionedTables, name)
		}
	}
	for i, db := range c.dbs {
		total := 0
		for _, name := range db.Names() {
			total += db.MustTable(name).Len()
		}
		st.RowsPerShard[i] = total
	}
	return st
}
