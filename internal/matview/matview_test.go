package matview

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"courserank/internal/relation"
)

// kvDB builds a database with one KV(ID, Val) table holding n rows
// Val = 10*ID.
func kvDB(t testing.TB, n int) (*relation.DB, *relation.Table) {
	t.Helper()
	db := relation.NewDB()
	tbl := relation.MustTable("KV",
		relation.NewSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeInt),
		), relation.WithPrimaryKey("ID"))
	db.MustCreate(tbl)
	for i := 1; i <= n; i++ {
		tbl.MustInsert(relation.Row{int64(i), int64(10 * i)})
	}
	return db, tbl
}

// sumKV is a build function summing KV.Val — cheap, deterministic, and
// sensitive to every row mutation.
func sumKV(tbl *relation.Table, builds *atomic.Int64) func() (any, error) {
	return func() (any, error) {
		builds.Add(1)
		var sum int64
		tbl.Scan(func(_ int, r relation.Row) bool {
			sum += r[1].(int64)
			return true
		})
		return sum, nil
	}
}

func TestSyncServing(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db)
	var builds atomic.Int64
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: sumKV(tbl, &builds)})
	if err != nil {
		t.Fatal(err)
	}

	val, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if val.(int64) != 100 || serve.Kind != ServeBuilt {
		t.Fatalf("cold read = %v (%v), want 100 built", val, serve.Kind)
	}
	val, serve, _ = v.Get()
	if val.(int64) != 100 || serve.Kind != ServeFresh || builds.Load() != 1 {
		t.Fatalf("warm read = %v (%v, builds=%d), want fresh hit off 1 build", val, serve.Kind, builds.Load())
	}

	// Row DML stales the view; a sync read blocks on the rebuild and
	// sees the write.
	tbl.MustInsert(relation.Row{int64(5), int64(50)})
	val, serve, _ = v.Get()
	if val.(int64) != 150 || serve.Kind != ServeBuilt || builds.Load() != 2 {
		t.Fatalf("post-DML read = %v (%v, builds=%d), want 150 rebuilt once", val, serve.Kind, builds.Load())
	}

	st := v.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Refreshes != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 2 refreshes", st)
	}
}

// TestSyncSingleFlight is the cold-stampede regression: N concurrent
// cold readers must share ONE build, not run N.
func TestSyncSingleFlight(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db)
	var builds atomic.Int64
	slowBuild := func() (any, error) {
		builds.Add(1)
		time.Sleep(30 * time.Millisecond) // hold the flight open
		var sum int64
		tbl.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
		return sum, nil
	}
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: slowBuild})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 16
	var wg sync.WaitGroup
	vals := make([]int64, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, _, err := v.Get()
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = val.(int64)
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d concurrent cold reads ran %d builds, want 1", readers, builds.Load())
	}
	for i, got := range vals {
		if got != 100 {
			t.Fatalf("reader %d got %d, want 100", i, got)
		}
	}
}

// TestSchemaEpochInvalidates is the DDL test: an epoch bump must drop
// the snapshot and rebuild — stale-schema rows are never served.
func TestSchemaEpochInvalidates(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db)
	var builds atomic.Int64
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: sumKV(tbl, &builds)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	// In-place DDL: bumps SchemaEpoch without touching the version.
	if err := tbl.AddOrderedIndex("Val"); err != nil {
		t.Fatal(err)
	}
	_, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != ServeBuilt {
		t.Fatalf("post-DDL read served %v, want a rebuild (stale-schema rows must never serve)", serve.Kind)
	}
	if st := v.Stats(); st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation", st)
	}
}

// TestTableReplacedInvalidates covers DROP/CREATE: the fingerprint pins
// table identity, so a same-named replacement cannot serve the old
// snapshot.
func TestTableReplacedInvalidates(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db)
	var builds atomic.Int64
	build := func() (any, error) {
		builds.Add(1)
		cur, ok := db.Table("KV")
		if !ok {
			return nil, errors.New("KV missing")
		}
		var sum int64
		cur.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
		return sum, nil
	}
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	db.Drop("KV")
	repl := relation.MustTable("KV", tbl.Schema())
	db.MustCreate(repl)
	repl.MustInsert(relation.Row{int64(1), int64(7)})
	val, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != ServeBuilt || val.(int64) != 7 {
		t.Fatalf("post-replace read = %v (%v), want 7 rebuilt", val, serve.Kind)
	}
}

// TestJoinedBuildRevalidates: a blocking read that JOINS an in-flight
// build may be handed data from before its own write — the flight
// started earlier. The strict rebuild path must detect the stale result
// and run one more build, so sync reads keep read-your-writes.
func TestJoinedBuildRevalidates(t *testing.T) {
	db, tbl := kvDB(t, 2) // sum = 30
	reg := NewRegistry(db)
	gate := make(chan struct{})
	var firstBuild atomic.Bool
	firstBuild.Store(true)
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"},
		Build: func() (any, error) {
			builds.Add(1)
			var sum int64
			tbl.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
			if firstBuild.CompareAndSwap(true, false) {
				<-gate // hold the first flight open with its pre-write data
			}
			return sum, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	aDone := make(chan int64, 1)
	go func() {
		val, _, err := v.Get()
		if err != nil {
			t.Error(err)
			aDone <- -1
			return
		}
		aDone <- val.(int64)
	}()
	for builds.Load() == 0 {
		time.Sleep(100 * time.Microsecond) // wait for A's build to be in flight
	}
	// The write commits while A's build (fingerprinted before it) hangs.
	tbl.MustInsert(relation.Row{int64(3), int64(100)})
	bDone := make(chan int64, 1)
	go func() {
		val, _, err := v.Get()
		if err != nil {
			t.Error(err)
			bDone <- -1
			return
		}
		bDone <- val.(int64)
	}()
	time.Sleep(10 * time.Millisecond) // let B reach and join the flight
	close(gate)
	if got := <-aDone; got != 30 {
		t.Fatalf("A (who started the pre-write build) = %d, want 30", got)
	}
	if got := <-bDone; got != 130 {
		t.Fatalf("B read after its write = %d, want 130 (joined result revalidated)", got)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want the joined stale result to trigger exactly one more", builds.Load())
	}
}

// TestAbsentDependencyCaches: a view whose dependency table does not
// exist yet must still cache its (empty) snapshot — the fingerprint
// records the absence and matches while the table stays absent — and
// must invalidate the moment the table is created.
func TestAbsentDependencyCaches(t *testing.T) {
	db := relation.NewDB()
	reg := NewRegistry(db)
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"},
		Build: func() (any, error) {
			builds.Add(1)
			t, ok := db.Table("KV")
			if !ok {
				return int64(0), nil
			}
			var sum int64
			t.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
			return sum, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if val, _, err := v.Get(); err != nil || val.(int64) != 0 {
		t.Fatalf("absent-table read = %v, %v", val, err)
	}
	if _, serve, _ := v.Get(); serve.Kind != ServeFresh || builds.Load() != 1 {
		t.Fatalf("second absent-table read = %v after %d builds, want a fresh hit off 1 build",
			serve.Kind, builds.Load())
	}
	tbl := relation.MustTable("KV",
		relation.NewSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeInt),
		))
	db.MustCreate(tbl)
	tbl.MustInsert(relation.Row{int64(1), int64(7)})
	if val, serve, _ := v.Get(); serve.Kind != ServeBuilt || val.(int64) != 7 {
		t.Fatalf("post-create read = %v (%v), want 7 rebuilt", val, serve.Kind)
	}
}

// TestGetOrRegisterOptionMismatch: reuse under one name requires the
// dependencies to agree.
func TestGetOrRegisterOptionMismatch(t *testing.T) {
	db, tbl := kvDB(t, 1)
	reg := NewRegistry(db)
	build := sumKV(tbl, new(atomic.Int64))
	if _, err := reg.GetOrRegister(Options{Name: "v", Deps: []string{"KV"}, Build: build}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.GetOrRegister(Options{Name: "v", Deps: []string{"KV", "Other"}, Build: build}); err == nil {
		t.Fatal("conflicting dependencies should not silently reuse the view")
	}
}

func TestBuildErrorRetries(t *testing.T) {
	db, tbl := kvDB(t, 2)
	reg := NewRegistry(db)
	fail := atomic.Bool{}
	fail.Store(true)
	var builds atomic.Int64
	build := func() (any, error) {
		builds.Add(1)
		if fail.Load() {
			return nil, errors.New("boom")
		}
		return sumKV(tbl, new(atomic.Int64))()
	}
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err == nil {
		t.Fatal("failing build should surface its error")
	}
	if st := v.Stats(); st.Errors != 1 || st.HasSnapshot {
		t.Fatalf("stats = %+v, want 1 error and no snapshot", st)
	}
	fail.Store(false)
	val, _, err := v.Get()
	if err != nil || val.(int64) != 30 {
		t.Fatalf("recovered read = %v, %v; want 30", val, err)
	}
}

// TestBuildPanicReleasesFlight: a Build that panics must not leave its
// flight in place — net/http recovers a panicking handler, the process
// lives on, and every later reader of the view would block for ever. The
// panic is the build's error, counted, and the next read builds again. A
// panicking Patch sends the view back to Build the same way.
func TestBuildPanicReleasesFlight(t *testing.T) {
	db, tbl := kvDB(t, 2)
	reg := NewRegistry(db)
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"},
		Build: func() (any, error) {
			if builds.Add(1) == 1 {
				panic("boom")
			}
			return sumKV(tbl, new(atomic.Int64))()
		},
		Keys:  func(string, relation.MutKind, relation.Row, relation.Row) ([]any, bool) { return []any{0}, true },
		Patch: func(any, []any) (any, error) { panic("patch boom") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking build returned %v, want the panic as its error", err)
	}
	second := make(chan error, 1)
	go func() {
		val, _, err := v.Get()
		if err == nil && val.(int64) != 30 {
			err = fmt.Errorf("second read = %v, want 30", val)
		}
		second <- err
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("the second read is still blocked on the panicked build's flight")
	}

	tbl.MustInsert(relation.Row{int64(3), int64(30)})
	val, serve, err := v.Get()
	if err != nil || serve.Kind != ServeBuilt || val.(int64) != 60 {
		t.Fatalf("read after a panicking patch = %v (%v), %v; want a rebuild to 60", val, serve.Kind, err)
	}
	if st := v.Stats(); st.Errors != 2 || st.Patches != 0 || st.Refreshes != 2 {
		t.Fatalf("stats = %+v, want both panics counted as errors", st)
	}
}

func TestRegistryRegistration(t *testing.T) {
	db, tbl := kvDB(t, 1)
	reg := NewRegistry(db)
	opts := Options{Name: "v", Deps: []string{"KV"}, Build: sumKV(tbl, new(atomic.Int64))}
	v1, err := reg.Register(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(opts); err == nil {
		t.Fatal("duplicate Register should fail")
	}
	v2, err := reg.GetOrRegister(opts)
	if err != nil || v2 != v1 {
		t.Fatalf("GetOrRegister should return the existing view (err=%v)", err)
	}
	for _, bad := range []Options{
		{Deps: []string{"KV"}, Build: opts.Build},
		{Name: "x", Build: opts.Build},
		{Name: "x", Deps: []string{"KV"}},
		{Name: "x", Deps: []string{"KV"}, Build: opts.Build, Patch: func(prev any, _ []any) (any, error) { return prev, nil }},
	} {
		if _, err := reg.Register(bad); err == nil {
			t.Fatalf("Register(%+v) should fail", bad)
		}
	}
	if got := len(reg.Views()); got != 1 {
		t.Fatalf("Views() len = %d, want 1", got)
	}
	if s := reg.Stats(); s.Views != 1 {
		t.Fatalf("Stats().Views = %d, want 1", s.Views)
	}
}

func TestPeekDoesNotBuild(t *testing.T) {
	db, tbl := kvDB(t, 2)
	reg := NewRegistry(db)
	var builds atomic.Int64
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: sumKV(tbl, &builds)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := v.Peek(); ok || builds.Load() != 0 {
		t.Fatal("Peek on a cold view must not build")
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	if val, serve, ok := v.Peek(); !ok || val.(int64) != 30 || serve.Kind != ServeFresh {
		t.Fatalf("warm Peek = %v %v %v", val, serve, ok)
	}
	tbl.MustInsert(relation.Row{int64(3), int64(30)})
	if _, serve, ok := v.Peek(); !ok || serve.Kind != ServeStale {
		t.Fatalf("stale Peek kind = %v, want stale without building", serve.Kind)
	}
	if builds.Load() != 1 {
		t.Fatalf("Peek triggered builds: %d", builds.Load())
	}
}

func TestStatsFields(t *testing.T) {
	db, tbl := kvDB(t, 2)
	reg := NewRegistry(db)
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: sumKV(tbl, new(atomic.Int64))})
	if err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.Name != "sum" {
		t.Fatalf("stats identity = %+v", st)
	}
	if fmt.Sprint(st.Deps) != "[KV]" {
		t.Fatalf("deps = %v", st.Deps)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	if st = v.Stats(); !st.HasSnapshot || st.Age < 0 {
		t.Fatalf("post-build stats = %+v", st)
	}
	v.Invalidate()
	if st = v.Stats(); st.HasSnapshot || st.Invalidations != 1 {
		t.Fatalf("post-Invalidate stats = %+v", st)
	}
}
