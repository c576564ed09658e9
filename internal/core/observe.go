package core

import "courserank/internal/obs"

// Query-level observability for a Site. Off by default — an
// uninstrumented site's only cost is one nil atomic-pointer load per
// statement, which keeps benchmark baselines honest — and switched on
// by the HTTP server (and anything else that wants /api/queries-style
// introspection) with one call.

// slowLogDepth is how many slowest statements a site's slow-query log
// retains.
const slowLogDepth = 32

// EnableObservability installs a query-level collector on the site's
// SQL engine (and on every shard engine, when sharded): per-statement
// latency histograms and a slow-query log whose entries get
// ANALYZE-annotated plans back-filled. Transaction outcomes are not
// here: relation.Tx counts them (DB.TxStats, /api/stats
// "transactions"). Durable
// sites also wire WAL durability-wait attribution, so slow-log entries
// split their latency into own-fsync vs group-commit-ride time.
// Idempotent; returns the collector.
func (s *Site) EnableObservability() *obs.Collector {
	if s.Obs != nil {
		return s.Obs
	}
	c := obs.NewCollector(slowLogDepth)
	if s.Durable != nil {
		store := s.Durable
		c.WALWait = func() (ownNs, rideNs int64) {
			ws := store.Stats().WAL
			return ws.SyncWaitNs, ws.RideWaitNs
		}
	}
	s.SQL.Observe(c)
	if s.Sharded != nil {
		for i := 0; i < s.Sharded.Shards(); i++ {
			s.Sharded.Engine(i).Observe(c)
		}
	}
	s.Obs = c
	return c
}

// DisableObservability uninstalls the collector; recorded data remains
// readable on the returned collector until it is garbage.
func (s *Site) DisableObservability() {
	if s.Obs == nil {
		return
	}
	s.SQL.Observe(nil)
	if s.Sharded != nil {
		for i := 0; i < s.Sharded.Shards(); i++ {
			s.Sharded.Engine(i).Observe(nil)
		}
	}
	s.Obs = nil
}
