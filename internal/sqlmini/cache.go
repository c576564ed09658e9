package sqlmini

import (
	"sync"
	"sync/atomic"

	"courserank/internal/relation"
)

// tableDep is one base table a cached plan was built against: the table
// pointer pins identity across DROP/CREATE, the schema epoch
// (relation.Table.SchemaEpoch) pins the set of available access paths,
// and rows records the statistics the planner costed with. Row DML does
// not move the epoch — cached plans stay correct across writes, since
// plans bake in access-path choices, never data — so a plan survives
// arbitrary churn until the table's size drifts far enough that the
// costing deserves a second look.
type tableDep struct {
	name  string
	tbl   *relation.Table
	epoch uint64
	rows  int
}

// statsDrifted reports whether a table's live-row count moved far
// enough from what the plan was costed with to justify a replan: grown
// past double or shrunk below half, with absolute slack so tiny tables
// don't thrash.
func statsDrifted(planned, cur int) bool {
	return cur > 2*planned+16 || 2*cur+16 < planned
}

// cacheEntry is one prepared SELECT: the parsed statement with
// placeholders late-bound, its physical plan and its schema
// fingerprint. Entries are immutable once built; executions bind
// parameters into copy-on-write shadows (bind.go) and never write back.
type cacheEntry struct {
	text    string
	nParams int
	sel     *preparedSelect
	deps    []tableDep
}

// valid reports whether every table the entry's plan depends on is
// still the same table, at the same schema epoch, with statistics that
// have not drifted past the replan threshold.
func (en *cacheEntry) valid(db *relation.DB) bool {
	for _, d := range en.deps {
		t, ok := db.Table(d.name)
		if !ok || t != d.tbl {
			return false
		}
		epoch, rows := t.PlanFingerprint()
		if epoch != d.epoch || statsDrifted(d.rows, rows) {
			return false
		}
	}
	return true
}

// cacheMaxEntries bounds the cache; past it, arbitrary entries are
// evicted. Application workloads issue a small fixed set of statement
// texts, so the bound exists only to cap adversarial or generated SQL.
const cacheMaxEntries = 1024

// PlanCache is a concurrency-safe map from SQL text to prepared
// statements, shared by every handle of one Engine (and, through a
// shared Engine, by every subsystem over one database). It takes
// lexing, parsing and planning off the per-request path: a repeated
// parameterized statement plans once and replans only when a dependent
// table mutates or is replaced.
type PlanCache struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

func newPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[string]*cacheEntry)}
}

// lookup returns the still-valid entry cached under text, counting a
// hit. A stale entry is evicted (counted as an invalidation) and, like
// an absent one, yields nil after counting a miss.
func (c *PlanCache) lookup(text string, db *relation.DB) *cacheEntry {
	c.mu.RLock()
	en := c.entries[text]
	c.mu.RUnlock()
	if en != nil {
		if en.valid(db) {
			c.hits.Add(1)
			return en
		}
		c.invalidations.Add(1)
		c.mu.Lock()
		if c.entries[text] == en {
			delete(c.entries, text)
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	return nil
}

// store inserts an entry, evicting arbitrary entries past the bound.
func (c *PlanCache) store(en *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[en.text]; !exists && len(c.entries) >= cacheMaxEntries {
		for k := range c.entries {
			delete(c.entries, k)
			if len(c.entries) < cacheMaxEntries {
				break
			}
		}
	}
	c.entries[en.text] = en
}

// CacheStats is a point-in-time snapshot of plan-cache effectiveness.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
}

// HitRate is hits over total lookups, 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats snapshots the engine's plan-cache counters. Force-scan
// handles bypass the cache and report zeros.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	e.cache.mu.RLock()
	n := len(e.cache.entries)
	e.cache.mu.RUnlock()
	return CacheStats{
		Hits:          e.cache.hits.Load(),
		Misses:        e.cache.misses.Load(),
		Invalidations: e.cache.invalidations.Load(),
		Entries:       n,
	}
}

// ResetCacheStats zeroes the hit/miss/invalidation counters (cached
// plans are kept), so a measurement window can start clean.
func (e *Engine) ResetCacheStats() {
	if e.cache == nil {
		return
	}
	e.cache.hits.Store(0)
	e.cache.misses.Store(0)
	e.cache.invalidations.Store(0)
}
