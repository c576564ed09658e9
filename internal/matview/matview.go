package matview

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"courserank/internal/relation"
)

// ServeKind says how one read was satisfied.
type ServeKind int

const (
	// ServeFresh: the snapshot reflects every committed change — as
	// built, or after this read caught it up from the change logs.
	ServeFresh ServeKind = iota
	// ServeStale: Peek found a snapshot some dependency has moved past.
	// Get never serves one.
	ServeStale
	// ServeBuilt: the read blocked on a (single-flighted) rebuild.
	ServeBuilt
)

// Serve describes how a Get was answered: the path taken, the age of
// the snapshot it returned (time since its build; zero for a snapshot
// built by this read) and, for a maintained view, how many keys this read
// recomputed to bring the snapshot current (zero when it served the
// snapshot as it stood).
type Serve struct {
	Kind    ServeKind
	Age     time.Duration
	Patched int
}

// Options declares one materialized view.
type Options struct {
	// Name keys the view in the registry; required and unique.
	Name string
	// Deps are the base-table names whose mutations stale the view.
	Deps []string
	// Build computes one snapshot value. The returned value is shared
	// between all readers of the snapshot and MUST be treated as
	// immutable by everyone — builds return fresh values, never mutate
	// a previous one.
	Build func() (any, error)
	// Keys and Patch, set together, make the view MAINTAINED: a read that
	// finds the snapshot stale recomputes the keys the committed changes
	// touched instead of running Build (see "Maintained views" in doc.go).
	//
	// Keys names the view keys (comparable values) that one committed row
	// change on dependency dep may have moved, or reports ok == false
	// when it cannot tell, which sends the view back to Build. It runs
	// inside the table's observer delivery, under the table's write lock,
	// so it may look at the two rows and at nothing else.
	Keys func(dep string, kind relation.MutKind, before, after relation.Row) (keys []any, ok bool)
	// Patch returns a NEW value equal to prev with every listed key
	// recomputed from the base tables as they are now; recomputing a key
	// that did not change must be harmless. prev is shared with readers
	// and must not be modified.
	Patch func(prev any, keys []any) (any, error)
}

// tableFP pins one dependency at build time: the table pointer (identity
// across DROP/CREATE), its schema epoch and its mutation version — the
// same (SchemaEpoch, Version) machinery the plan cache fingerprints
// with, except views key on the full mutation counter because they bake
// in data, not access paths. A nil tbl records that the table did not
// exist at build time.
type tableFP struct {
	name    string
	tbl     *relation.Table
	epoch   uint64
	version uint64
}

// snapshot is one immutable build result. Readers obtain the whole
// snapshot through an atomic pointer, so a reader never observes a
// half-replaced view — refreshes publish a new snapshot or none.
type snapshot struct {
	value    any
	fps      []tableFP
	builtAt  time.Time
	buildDur time.Duration
}

// compare checks every dependency against its build-time fingerprint.
// sameShape reports the same table at the same schema epoch everywhere
// — a dropped, replaced or re-shaped table may have left stale-SCHEMA
// rows in the snapshot — and fresh that the versions match as well. A
// dependency absent at build time matches while it stays absent: the
// snapshot legitimately reflects "no table".
func (s *snapshot) compare(db *relation.DB) (sameShape, fresh bool) {
	fresh = true
	for _, fp := range s.fps {
		t, ok := db.Table(fp.name)
		if !ok {
			if fp.tbl == nil {
				continue // absent at build, still absent
			}
			return false, false
		}
		if t != fp.tbl {
			return false, false
		}
		epoch, version := t.ViewFingerprint()
		if epoch != fp.epoch {
			return false, false
		}
		fresh = fresh && version == fp.version
	}
	return true, fresh
}

// past reports whether s is o carried further: the same tables at the
// same schema epochs, no version behind o's and at least one ahead.
func (s *snapshot) past(o *snapshot) bool {
	ahead := false
	for i, fp := range s.fps {
		of := o.fps[i]
		if fp.tbl != of.tbl || fp.epoch != of.epoch || fp.version < of.version {
			return false
		}
		ahead = ahead || fp.version > of.version
	}
	return ahead
}

// call is one in-flight build that late readers join instead of
// building again — the single-flight mechanism.
type call struct {
	done chan struct{}
	snap *snapshot
	err  error
}

// View is one registered materialized view. All methods are safe for
// concurrent use.
type View struct {
	reg   *Registry
	name  string
	deps  []string
	build func() (any, error)
	keys  func(dep string, kind relation.MutKind, before, after relation.Row) ([]any, bool)
	patch func(prev any, keys []any) (any, error) // nil = not maintained

	snap   atomic.Pointer[snapshot]
	mu     sync.Mutex // guards flight and logs; held while a patch runs
	flight *call
	logs   map[string]*changeLog // per dependency name; maintained views only

	hits          atomic.Uint64
	misses        atomic.Uint64
	refreshes     atomic.Uint64
	patches       atomic.Uint64
	invalidations atomic.Uint64
	errors        atomic.Uint64
}

// Name returns the view's registry key.
func (v *View) Name() string { return v.name }

// Deps returns the dependency table names.
func (v *View) Deps() []string { return append([]string(nil), v.deps...) }

// fingerprint captures every dependency's current (pointer, epoch,
// version). It is taken BEFORE the build reads any table, so a mutation
// racing the build makes the snapshot immediately stale — conservative,
// never incorrect. A maintained view attaches its change log to the
// table first, so no version past the fingerprint can miss the log.
func (v *View) fingerprint() []tableFP {
	fps := make([]tableFP, len(v.deps))
	for i, name := range v.deps {
		fps[i] = tableFP{name: name}
		if t, ok := v.reg.db.Table(name); ok {
			if v.patch != nil {
				v.attach(name, t)
			}
			fps[i].tbl = t
			fps[i].epoch, fps[i].version = t.ViewFingerprint()
		}
	}
	return fps
}

// rebuild runs (or joins) the single-flight build and returns its
// snapshot. Readers arriving while a build is in flight wait for that
// build instead of starting their own.
//
// A JOINED build's result is revalidated: the flight may have started
// before the write or DDL that sent this reader here, so a result that
// is already stale — or worse, pre-DDL — triggers one more round
// instead of being returned as ServeBuilt. The second round is always
// acceptable: any flight encountered then was created after the first
// one cleared, i.e. after this read began, so its fingerprint covers
// everything the reader has seen.
func (v *View) rebuild() (*snapshot, error) {
	joined := false
	for {
		v.mu.Lock()
		if c := v.flight; c != nil {
			v.mu.Unlock()
			<-c.done
			if c.err != nil {
				return nil, c.err
			}
			if joined {
				return c.snap, nil
			}
			if s, ok := v.current(c.snap); ok {
				return s, nil
			}
			joined = true
			continue
		}
		c := &call{done: make(chan struct{})}
		v.flight = c
		v.mu.Unlock()
		v.fly(c)
		return c.snap, c.err
	}
}

// current reports whether s, the result of a flight a blocking read
// joined, reflects everything committed before the read — as it stands
// or, for a maintained view, once caught up from the change logs, which
// is what a write racing the build costs instead of a second build.
func (v *View) current(s *snapshot) (*snapshot, bool) {
	if _, fresh := s.compare(v.reg.db); fresh {
		return s, true
	}
	if v.patch != nil {
		s, _, ok := v.advance()
		return s, ok
	}
	return nil, false
}

// fly runs the build as flight c. The flight is released in a defer: a
// build that panics on a request goroutine is recovered by net/http and
// the process lives on, so a flight left in place would block every
// later reader of the view on c.done for ever.
func (v *View) fly(c *call) {
	defer func() {
		v.mu.Lock()
		v.flight = nil
		v.mu.Unlock()
		close(c.done)
	}()
	fps := v.fingerprint()
	t0 := time.Now()
	val, err := guarded(v.build)
	if err != nil {
		v.errors.Add(1)
		c.err = fmt.Errorf("matview: building %q: %w", v.name, err)
		return
	}
	c.snap = &snapshot{value: val, fps: fps, builtAt: time.Now(), buildDur: time.Since(t0)}
	// Maintenance does not wait for a build: if it has carried the
	// published snapshot past this build's fingerprint meanwhile, that
	// snapshot is the newer one and its logs are trimmed to it.
	v.mu.Lock()
	if cur := v.snap.Load(); cur == nil || !cur.past(c.snap) {
		v.snap.Store(c.snap)
		v.trimLogs(fps)
	}
	v.mu.Unlock()
	v.refreshes.Add(1)
}

// guarded runs a view's Build or Patch, reporting a panic as the
// callback's error.
func guarded(fn func() (any, error)) (val any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// Get serves the view: the snapshot immediately when it is fresh (hit)
// — for a maintained view also when this read caught it up from the
// change logs — and otherwise the result of a blocking single-flighted
// rebuild (miss). Either way the value reflects every change committed
// before the read. It is shared and immutable — callers must not modify
// it.
func (v *View) Get() (any, Serve, error) {
	if s := v.snap.Load(); s != nil {
		sameShape, fresh := s.compare(v.reg.db)
		switch {
		case fresh:
			v.hits.Add(1)
			return s.value, Serve{Kind: ServeFresh, Age: time.Since(s.builtAt)}, nil
		case !sameShape:
			// Schema epoch moved or the table was replaced: the snapshot
			// may hold stale-SCHEMA rows, which must never be served.
			// Drop it so even a racing reader cannot pick it up; the CAS
			// guard counts one invalidation per event, not per reader.
			if v.snap.CompareAndSwap(s, nil) {
				v.invalidations.Add(1)
			}
		case v.patch != nil:
			if ps, patched, ok := v.advance(); ok {
				v.hits.Add(1)
				return ps.value, Serve{Kind: ServeFresh, Age: time.Since(ps.builtAt), Patched: patched}, nil
			}
		}
	}
	v.misses.Add(1)
	s, err := v.rebuild()
	if err != nil {
		return nil, Serve{}, err
	}
	return s.value, Serve{Kind: ServeBuilt, Age: time.Since(s.builtAt)}, nil
}

// Peek returns the current snapshot without serving it: no build is
// triggered and no counter moves. ok is false when the view has never
// been built, or when a schema change invalidated the snapshot — dropped
// already, or due to be dropped by the next read. Explain-style
// introspection uses it to annotate plans without perturbing stats.
func (v *View) Peek() (value any, serve Serve, ok bool) {
	s := v.snap.Load()
	if s == nil {
		return nil, Serve{}, false
	}
	sameShape, fresh := s.compare(v.reg.db)
	if !sameShape {
		return nil, Serve{}, false
	}
	kind := ServeStale
	if fresh {
		kind = ServeFresh
	}
	return s.value, Serve{Kind: kind, Age: time.Since(s.builtAt)}, true
}

// Maintained reports whether the view declares Keys and Patch: a read
// that finds its snapshot stale patches it rather than rebuilding,
// unless the change logs cannot say what changed.
func (v *View) Maintained() bool { return v.patch != nil }

// Invalidate drops the current snapshot, so the next read rebuilds.
// Registered as a manual invalidation in the counters.
func (v *View) Invalidate() {
	if v.snap.Swap(nil) != nil {
		v.invalidations.Add(1)
	}
}

// ViewStats is a point-in-time snapshot of one view's counters and
// snapshot state.
type ViewStats struct {
	Name          string        `json:"name"`
	Deps          []string      `json:"deps"`
	Hits          uint64        `json:"hits"`
	Misses        uint64        `json:"misses"`
	Refreshes     uint64        `json:"refreshes"` // full builds only
	Patches       uint64        `json:"patches"`   // snapshots brought current from the change logs
	Invalidations uint64        `json:"invalidations"`
	Errors        uint64        `json:"errors"`
	HasSnapshot   bool          `json:"hasSnapshot"`
	Age           time.Duration `json:"age"`       // of the current snapshot; 0 when none
	LastBuild     time.Duration `json:"lastBuild"` // duration of the last completed build
}

// Stats snapshots the view's counters.
func (v *View) Stats() ViewStats {
	st := ViewStats{
		Name:          v.name,
		Deps:          v.Deps(),
		Hits:          v.hits.Load(),
		Misses:        v.misses.Load(),
		Refreshes:     v.refreshes.Load(),
		Patches:       v.patches.Load(),
		Invalidations: v.invalidations.Load(),
		Errors:        v.errors.Load(),
	}
	if s := v.snap.Load(); s != nil {
		st.HasSnapshot = true
		st.Age = time.Since(s.builtAt)
		st.LastBuild = s.buildDur
	}
	return st
}

// Stats aggregates counters across every view in a registry.
type Stats struct {
	Views         int    `json:"views"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Refreshes     uint64 `json:"refreshes"`
	Patches       uint64 `json:"patches"`
	Invalidations uint64 `json:"invalidations"`
	Errors        uint64 `json:"errors"`
}

// Registry is the catalog of materialized views over one database.
type Registry struct {
	db *relation.DB

	mu    sync.RWMutex
	views map[string]*View
}

// NewRegistry builds an empty registry over db.
func NewRegistry(db *relation.DB) *Registry {
	return &Registry{db: db, views: make(map[string]*View)}
}

// DB returns the database the registry's views are defined over.
func (r *Registry) DB() *relation.DB { return r.db }

// Register declares a view. Duplicate names are rejected; use
// GetOrRegister for idempotent registration.
func (r *Registry) Register(o Options) (*View, error) {
	return r.register(o, false)
}

// GetOrRegister returns the existing view under o.Name, or registers o.
// Lazy wiring (FlexRecs materialize steps) uses it so the first request
// to a workflow shape installs the view and later requests share it.
// Reuse requires the dependencies to agree: a view fingerprinted on
// other tables would go stale on the wrong writes, so the mismatch is an
// error instead.
func (r *Registry) GetOrRegister(o Options) (*View, error) {
	return r.register(o, true)
}

func (r *Registry) register(o Options, reuse bool) (*View, error) {
	if o.Name == "" {
		return nil, fmt.Errorf("matview: view needs a name")
	}
	if o.Build == nil {
		return nil, fmt.Errorf("matview: view %q needs a Build function", o.Name)
	}
	if len(o.Deps) == 0 {
		return nil, fmt.Errorf("matview: view %q needs at least one dependency table", o.Name)
	}
	if (o.Keys == nil) != (o.Patch == nil) {
		return nil, fmt.Errorf("matview: view %q needs Keys and Patch together", o.Name)
	}
	// Warm lookups take only the read lock: GetOrRegister sits on every
	// serve of lazily-wired views, so it must not serialize readers on
	// the registry's write lock once the view exists.
	if reuse {
		r.mu.RLock()
		v := r.views[o.Name]
		r.mu.RUnlock()
		if v != nil {
			return reusable(v, o)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, dup := r.views[o.Name]; dup {
		if !reuse {
			return nil, fmt.Errorf("matview: view %q already registered", o.Name)
		}
		return reusable(v, o)
	}
	v := &View{
		reg:   r,
		name:  o.Name,
		deps:  append([]string(nil), o.Deps...),
		build: o.Build,
		keys:  o.Keys,
		patch: o.Patch,
	}
	r.views[o.Name] = v
	return v, nil
}

// reusable enforces the reuse contract: the existing view's
// dependencies must agree with the requested ones.
func reusable(v *View, o Options) (*View, error) {
	if !slices.Equal(v.deps, o.Deps) {
		return nil, fmt.Errorf("matview: view %q already registered with different dependencies", o.Name)
	}
	return v, nil
}

// View looks up a view by name.
func (r *Registry) View(name string) (*View, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.views[name]
	return v, ok
}

// Views returns every registered view sorted by name.
func (r *Registry) Views() []*View {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// Stats aggregates counters across all views.
func (r *Registry) Stats() Stats {
	var s Stats
	for _, v := range r.Views() {
		vs := v.Stats()
		s.Views++
		s.Hits += vs.Hits
		s.Misses += vs.Misses
		s.Refreshes += vs.Refreshes
		s.Patches += vs.Patches
		s.Invalidations += vs.Invalidations
		s.Errors += vs.Errors
	}
	return s
}
