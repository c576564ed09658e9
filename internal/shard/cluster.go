package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// Cluster is N shard databases plus one sqlmini engine per shard and
// the routing state above them. It is safe for concurrent use.
type Cluster struct {
	dbs     []*relation.DB
	eng     []*sqlmini.Engine
	n       int
	workers int // per-query fan-out pool bound, sized by GOMAXPROCS

	rr    atomic.Uint64 // round-robin cursor for replicated-only routes
	stmts sync.Map      // sql text → *Stmt

	// Split records the source database and each table's version as its
	// scan begins, so FollowBase can detect writes that landed in the
	// window between the copy and the observers attaching.
	splitSrc  *relation.DB
	splitVers map[string]uint64

	fastPath     atomic.Uint64
	replicated   atomic.Uint64
	fanOut       atomic.Uint64
	mergeOrdered atomic.Uint64
	mergeConcat  atomic.Uint64
	applyErrors  atomic.Uint64
}

// New builds a cluster over pre-populated shard databases. The caller
// is responsible for having placed rows consistently with the tables'
// declared shard keys (Split does this for you).
func New(dbs []*relation.DB) (*Cluster, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("shard: cluster needs at least one shard")
	}
	c := &Cluster{
		dbs:     dbs,
		n:       len(dbs),
		workers: max(1, runtime.GOMAXPROCS(0)),
	}
	for _, db := range dbs {
		c.eng = append(c.eng, sqlmini.New(db))
	}
	return c, nil
}

// Split partitions a populated database into n shards: tables with a
// declared shard key scatter row-by-row to the key's hash owner,
// tables without one replicate to every shard. The source database is
// not modified; call FollowBase to keep the shards trailing it.
//
// Quiescence: the source must not be written between the start of
// Split and FollowBase returning — the copy is per-table and observers
// attach only in FollowBase, so a write landing in that window would
// be silently absent from the shards. Call both after bulk loading
// completes, before serving writes. FollowBase detects violations by
// comparing table versions and counts them in Stats.ApplyErrors.
func Split(src *relation.DB, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: cannot split into %d shards", n)
	}
	dbs := make([]*relation.DB, n)
	for i := range dbs {
		dbs[i] = relation.NewDB()
	}
	c, err := New(dbs)
	if err != nil {
		return nil, err
	}
	c.splitSrc = src
	c.splitVers = make(map[string]uint64)
	for _, name := range src.Names() {
		t := src.MustTable(name)
		c.splitVers[name] = t.Version()
		shardTables := make([]*relation.Table, n)
		for i, db := range dbs {
			nt, err := cloneEmpty(t)
			if err != nil {
				return nil, err
			}
			if err := db.Create(nt); err != nil {
				return nil, err
			}
			shardTables[i] = nt
		}
		keyIdx := -1
		if key, ok := t.ShardKey(); ok {
			if i, ok := t.Schema().Index(key); ok {
				keyIdx = i
			}
		}
		var ierr error
		t.Scan(func(_ int, row relation.Row) bool {
			if keyIdx >= 0 {
				_, ierr = shardTables[c.ownerOf(row[keyIdx])].Insert(row)
			} else {
				for _, st := range shardTables {
					if _, ierr = st.Insert(row); ierr != nil {
						break
					}
				}
			}
			return ierr == nil
		})
		if ierr != nil {
			return nil, fmt.Errorf("shard: splitting %s: %w", name, ierr)
		}
	}
	return c, nil
}

// cloneEmpty reconstructs a table's shape — schema, primary key,
// auto-increment, hash and ordered indexes, shard key — with no rows.
func cloneEmpty(t *relation.Table) (*relation.Table, error) {
	s := t.Schema()
	cols := make([]relation.Column, s.Len())
	for i := range cols {
		cols[i] = s.Column(i)
	}
	var opts []relation.TableOption
	if pk := t.PrimaryKey(); len(pk) > 0 {
		opts = append(opts, relation.WithPrimaryKey(pk...))
	}
	if ac := t.AutoIncrement(); ac != "" {
		opts = append(opts, relation.WithAutoIncrement(ac))
	}
	for _, col := range t.SecondaryIndexes() {
		opts = append(opts, relation.WithIndex(col))
	}
	for _, col := range t.OrderedIndexes() {
		opts = append(opts, relation.WithOrderedIndex(col))
	}
	if key, ok := t.ShardKey(); ok {
		opts = append(opts, relation.WithShardKey(key))
	}
	return relation.NewTable(t.Name(), relation.NewSchema(cols...), opts...)
}

// FollowBase attaches row observers to every table of a base database
// so committed base mutations propagate into the shards synchronously
// (the observers run under the base table's write lock, so a reader
// that has seen the base version bump will find the row sharded).
// Tables created on the base afterwards are not followed; reshard
// after DDL on the base. Propagation failures — which would mean the
// shards and base disagree on a row's validity — are counted in
// Stats.ApplyErrors rather than panicking the writer.
//
// Call immediately after Split, with no writes in between (see the
// quiescence note there). Writes that slipped into the window are
// detected here — the table's version no longer matches what Split
// saw — and counted in Stats.ApplyErrors, since the shards have
// diverged from the base exactly as if a propagation had failed.
func (c *Cluster) FollowBase(src *relation.DB) {
	for _, name := range src.Names() {
		t := src.MustTable(name)
		name := name
		// Version is read before the observer attaches: a write the
		// observer will propagate must not count as divergence.
		if src == c.splitSrc {
			if v, ok := c.splitVers[name]; ok && t.Version() != v {
				c.applyErrors.Add(1)
			}
		}
		t.Observe(func(kind relation.MutKind, before, after relation.Row, _ relation.VersionSpan) {
			c.applyBase(name, kind, before, after)
		})
	}
}

// applyBase mirrors one committed base mutation into the shards.
func (c *Cluster) applyBase(table string, kind relation.MutKind, before, after relation.Row) {
	keyIdx, partitioned := c.keyIdxOf(table)
	switch kind {
	case relation.MutInsert:
		if partitioned {
			c.applyInsert(c.ownerOf(after[keyIdx]), table, after)
			return
		}
		for i := 0; i < c.n; i++ {
			c.applyInsert(i, table, after)
		}
	case relation.MutUpdate:
		if partitioned {
			from, to := c.ownerOf(before[keyIdx]), c.ownerOf(after[keyIdx])
			c.applyDelete(from, table, before)
			c.applyInsert(to, table, after)
			return
		}
		for i := 0; i < c.n; i++ {
			c.applyDelete(i, table, before)
			c.applyInsert(i, table, after)
		}
	case relation.MutDelete:
		if partitioned {
			c.applyDelete(c.ownerOf(before[keyIdx]), table, before)
			return
		}
		for i := 0; i < c.n; i++ {
			c.applyDelete(i, table, before)
		}
	}
}

func (c *Cluster) applyInsert(shard int, table string, row relation.Row) {
	t, ok := c.dbs[shard].Table(table)
	if !ok {
		c.applyErrors.Add(1)
		return
	}
	if _, err := t.Insert(row); err != nil {
		c.applyErrors.Add(1)
	}
}

// applyDelete removes exactly one shard row equal to the base
// pre-image — one, not all, so duplicate rows on keyless tables track
// the base's slot-precise delete.
func (c *Cluster) applyDelete(shard int, table string, row relation.Row) {
	t, ok := c.dbs[shard].Table(table)
	if !ok {
		c.applyErrors.Add(1)
		return
	}
	done := false
	n, err := t.DeleteWhere(func(r relation.Row) bool {
		if done || !rowsEqual(r, row) {
			return false
		}
		done = true
		return true
	})
	if err != nil || n != 1 {
		c.applyErrors.Add(1)
	}
}

func rowsEqual(a, b relation.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !relation.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.n }

// DB returns shard i's database; for tests and diagnostics.
func (c *Cluster) DB(i int) *relation.DB { return c.dbs[i] }

// Engine returns shard i's SQL engine; for tests and diagnostics.
func (c *Cluster) Engine(i int) *sqlmini.Engine { return c.eng[i] }

// keyIdxOf resolves a table's shard-key column index from shard 0's
// metadata (every shard carries identical shapes).
func (c *Cluster) keyIdxOf(table string) (int, bool) {
	t, ok := c.dbs[0].Table(table)
	if !ok {
		return -1, false
	}
	key, ok := t.ShardKey()
	if !ok {
		return -1, false
	}
	i, ok := t.Schema().Index(key)
	if !ok {
		return -1, false
	}
	return i, true
}

// shardKeyOf returns a table's declared shard key column name.
func (c *Cluster) shardKeyOf(table string) (string, bool) {
	t, ok := c.dbs[0].Table(table)
	if !ok {
		return "", false
	}
	return t.ShardKey()
}

// ownerOf hashes a shard-key value to its owning shard. Integral
// floats inside int64 range hash like the equal integer (mirroring the
// engine's key normalization, so SuID = 7 and SuID = 7.0 pin the same
// shard); outside that range the float-to-int conversion would be
// implementation-defined, so such keys keep the float encoding and
// placement stays platform-independent. NULL keys own to shard 0.
func (c *Cluster) ownerOf(v relation.Value) int {
	nv, err := relation.Normalize(v)
	if err != nil || nv == nil {
		return 0
	}
	h := fnv.New64a()
	var b [9]byte
	switch x := nv.(type) {
	case int64:
		b[0] = 'i'
		binary.LittleEndian.PutUint64(b[1:], uint64(x))
		h.Write(b[:])
	case float64:
		if integralInt64(x) {
			b[0] = 'i'
			binary.LittleEndian.PutUint64(b[1:], uint64(int64(x)))
		} else {
			b[0] = 'f'
			binary.LittleEndian.PutUint64(b[1:], math.Float64bits(x))
		}
		h.Write(b[:])
	case string:
		b[0] = 's'
		h.Write(b[:1])
		h.Write([]byte(x))
	case bool:
		b[0] = 'b'
		if x {
			b[1] = 1
		}
		h.Write(b[:2])
	default:
		return 0
	}
	return int(h.Sum64() % uint64(c.n))
}

// integralInt64 reports whether the float is a whole number an int64
// can represent, so int64(x) is well-defined. The upper bound is
// exclusive: float64(MaxInt64) rounds up to 2^63, one past the last
// representable value.
func integralInt64(x float64) bool {
	return x == math.Trunc(x) && x >= math.MinInt64 && x < math.MaxInt64
}

// Query routes and executes a SELECT, materialized.
func (c *Cluster) Query(text string, args ...any) (*sqlmini.Result, error) {
	st, err := c.Prepare(text)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
}

// Explain describes how the statement routes, then the underlying
// single-shard physical plan.
func (c *Cluster) Explain(text string, args ...any) (string, error) {
	st, err := c.Prepare(text)
	if err != nil {
		return "", err
	}
	return st.ExplainArgs(args...)
}
