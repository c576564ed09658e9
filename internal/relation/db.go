package relation

import (
	"fmt"
	"sort"
	"sync"
)

// DB is a named collection of tables — the database instance the rest of
// CourseRank (SQL engine, FlexRecs, search indexing) operates on.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	store  Storage // nil = ephemeral; set once via attachStorage before serving
	tx     txCounters
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// storage returns the attached backend, nil for an ephemeral DB.
func (db *DB) storage() Storage {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store
}

// attachStorage wires s behind every current table and every table
// created afterwards. Called while the DB is quiescent (open, Bulk).
func (db *DB) attachStorage(s Storage) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.store = s
	box := &storageBox{s: s}
	for _, t := range db.tables {
		t.store.Store(box)
	}
}

// detachStorage unwires the backend, returning every table to the
// ephemeral fast path. Called while the DB is quiescent.
func (db *DB) detachStorage() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.store = nil
	for _, t := range db.tables {
		t.store.Store(nil)
	}
}

// Create registers a table. It fails if a table with the same
// (case-sensitive) name already exists. On a durable DB the definition
// is journaled before Create returns.
func (db *DB) Create(t *Table) error {
	db.mu.Lock()
	s := db.store
	if s == nil {
		defer db.mu.Unlock()
		if _, dup := db.tables[t.name]; dup {
			return fmt.Errorf("relation: table %q already exists", t.name)
		}
		db.tables[t.name] = t
		return nil
	}
	// Durable path: the checkpoint gate must be entered before db.mu
	// (lock order gate → db.mu → table.mu), so release and retake.
	db.mu.Unlock()
	s.BeginMutate()
	db.mu.Lock()
	if _, dup := db.tables[t.name]; dup {
		db.mu.Unlock()
		s.EndMutate()
		return fmt.Errorf("relation: table %q already exists", t.name)
	}
	lsn, err := s.LogCreate(t)
	if err != nil {
		db.mu.Unlock()
		s.EndMutate()
		return err
	}
	t.store.Store(&storageBox{s: s})
	db.tables[t.name] = t
	db.mu.Unlock()
	s.EndMutate()
	return s.WaitDurable(lsn)
}

// MustCreate registers a table and panics on conflict; for schema setup.
func (db *DB) MustCreate(t *Table) *Table {
	if err := db.Create(t); err != nil {
		panic(err)
	}
	return t
}

// Ensure registers t unless a table with the same name already exists,
// in which case the existing table is returned after verifying its
// shape matches t's (columns, primary key, auto-increment, index set).
// Subsystem Setup functions go through Ensure so they are idempotent:
// on a freshly opened durable database the tables already exist from
// recovery, and Setup must adopt them rather than fail.
func (db *DB) Ensure(t *Table) (*Table, error) {
	if existing, ok := db.Table(t.name); ok {
		if err := schemaEquiv(existing, t); err != nil {
			return nil, fmt.Errorf("relation: table %q exists with different shape: %w", t.name, err)
		}
		return existing, nil
	}
	if err := db.Create(t); err != nil {
		return nil, err
	}
	return t, nil
}

// MustEnsure is Ensure that panics on error; for statically known schemas.
func (db *DB) MustEnsure(t *Table) *Table {
	got, err := db.Ensure(t)
	if err != nil {
		panic(err)
	}
	return got
}

// schemaEquiv reports whether two tables have the same shape. Ordered
// indexes may exist on `have` beyond `want`'s — AddOrderedIndex is
// legal at runtime, so a recovered table may have accumulated more.
func schemaEquiv(have, want *Table) error {
	hs, ws := have.Schema(), want.Schema()
	if hs.Len() != ws.Len() {
		return fmt.Errorf("%d columns vs %d", hs.Len(), ws.Len())
	}
	for i := 0; i < ws.Len(); i++ {
		hc, wc := hs.Column(i), ws.Column(i)
		if hc.Name != wc.Name || hc.Type != wc.Type || hc.NotNull != wc.NotNull {
			return fmt.Errorf("column %d is %s %s, want %s %s", i, hc.Name, hc.Type, wc.Name, wc.Type)
		}
	}
	if !equalStrings(have.PrimaryKey(), want.PrimaryKey()) {
		return fmt.Errorf("primary key %v vs %v", have.PrimaryKey(), want.PrimaryKey())
	}
	if have.AutoIncrement() != want.AutoIncrement() {
		return fmt.Errorf("auto-increment %q vs %q", have.AutoIncrement(), want.AutoIncrement())
	}
	if !equalStrings(have.SecondaryIndexes(), want.SecondaryIndexes()) {
		return fmt.Errorf("indexes %v vs %v", have.SecondaryIndexes(), want.SecondaryIndexes())
	}
	for _, col := range want.OrderedIndexes() {
		if !have.HasOrderedIndex(col) {
			return fmt.Errorf("missing ordered index on %s", col)
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// MustTable returns the named table, panicking if absent; for tables the
// program itself created.
func (db *DB) MustTable(name string) *Table {
	t, ok := db.Table(name)
	if !ok {
		panic(fmt.Sprintf("relation: no table %q", name))
	}
	return t
}

// Drop removes the named table, reporting whether it existed. On a
// durable DB the drop is journaled; a WAL failure leaves the table in
// place and reports false.
func (db *DB) Drop(name string) bool {
	db.mu.Lock()
	s := db.store
	if s == nil {
		defer db.mu.Unlock()
		_, ok := db.tables[name]
		delete(db.tables, name)
		return ok
	}
	db.mu.Unlock()
	s.BeginMutate()
	db.mu.Lock()
	t, ok := db.tables[name]
	if !ok {
		db.mu.Unlock()
		s.EndMutate()
		return false
	}
	lsn, err := s.LogDrop(name)
	if err != nil {
		db.mu.Unlock()
		s.EndMutate()
		return false
	}
	t.store.Store(nil)
	delete(db.tables, name)
	db.mu.Unlock()
	s.EndMutate()
	s.WaitDurable(lsn)
	return true
}

// Names returns the table names in sorted order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
