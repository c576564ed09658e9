package core

import (
	"fmt"

	"courserank/internal/flexrecs"
	"courserank/internal/shard"
)

// shardedTables are the site tables partitioned on the student axis
// when sharding is enabled. Everything else — catalog, offerings,
// requirement programs — is reference data and replicates to every
// shard, so joins against it stay local.
var shardedTables = []string{"Comments", "Enrollments", "EnrollmentPoints"}

// shardBackend routes FlexRecs' compiled workflow statements through
// the scatter-gather cluster: shard-key-pinned fragments hit one
// shard, the rest fan out and merge.
type shardBackend struct{ c *shard.Cluster }

func (b shardBackend) Prepare(sql string) (flexrecs.PreparedQuery, error) {
	return b.c.Prepare(sql)
}

func (b shardBackend) Explain(sql string, args ...any) (string, error) {
	return b.c.Explain(sql, args...)
}

// EnableSharding splits the site's student-keyed tables across n
// shards and rewires query execution above them:
//
//   - Comments, Enrollments and EnrollmentPoints are partitioned on
//     SuID; every other table replicates, so per-student working sets
//     — the dominant axis of the paper's workload — live on one shard
//     while catalog joins never cross shards.
//   - The shards follow the base database through row observers, which
//     run in the lock hold that applies each base write (durable sites
//     included), so the existing write paths (comment posts, planner
//     moves, bulk load) keep working untouched and a read through the
//     cluster sees every write a base reader does.
//   - FlexRecs workflows recompile onto the cluster: each compiled
//     subtree routes to a single shard when its predicates pin the
//     shard key, and scatter-gathers otherwise.
//   - The maintained views are untouched: the top-rated feed and the
//     FlexRecs extend views are built and patched from the base tables,
//     which hold every row and are what the views fingerprint.
//
// Call after bulk loading and RefreshDerived: base-side DDL after
// enabling (for example re-running RefreshDerived, which drops and
// recreates EnrollmentPoints) is not followed and requires resharding.
func (s *Site) EnableSharding(n int) error {
	if s.Sharded != nil {
		return fmt.Errorf("core: sharding already enabled")
	}
	for _, name := range shardedTables {
		tbl, ok := s.DB.Table(name)
		if !ok {
			continue // EnrollmentPoints exists only after RefreshDerived
		}
		if err := tbl.SetShardKey("SuID"); err != nil {
			return fmt.Errorf("core: declaring shard key on %s: %w", name, err)
		}
	}
	c, err := shard.Split(s.DB, n)
	if err != nil {
		return err
	}

	c.FollowBase(s.DB)
	s.Sharded = c

	// Recompile workflows onto the cluster. The base SQL engine stays
	// for expression evaluation and ForceScan parity runs.
	s.Flex = flexrecs.NewEngineWithBackend(s.SQL, shardBackend{c})
	s.Flex.UseMatviews(s.Views)

	// A collector installed before sharding covers the new engines too.
	if s.Obs != nil {
		for i := 0; i < c.Shards(); i++ {
			c.Engine(i).Observe(s.Obs)
		}
	}
	return nil
}
