package relation_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"courserank/internal/relation"
	"courserank/internal/shard"
)

// parkedStore is a Storage that accepts every record and parks each
// WaitDurable until the test releases it: the window between a durable
// write being applied and its fsync being confirmed, held open.
type parkedStore struct {
	mu      sync.Mutex
	lsn     uint64
	parked  chan struct{}
	release chan struct{}
}

func (p *parkedStore) next() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lsn++
	return p.lsn, nil
}

func (p *parkedStore) BeginMutate()                                             {}
func (p *parkedStore) EndMutate()                                               {}
func (p *parkedStore) LogMutations(string, []relation.Mutation) (uint64, error) { return p.next() }
func (p *parkedStore) LogCreate(*relation.Table) (uint64, error)                { return p.next() }
func (p *parkedStore) LogDrop(string) (uint64, error)                           { return p.next() }
func (p *parkedStore) LogAlter(string, string) (uint64, error)                  { return p.next() }
func (p *parkedStore) LogTxMutations(uint64, string, []relation.Mutation) (uint64, error) {
	return p.next()
}
func (p *parkedStore) LogTxCommit(uint64) (uint64, error) { return p.next() }

func (p *parkedStore) WaitDurable(uint64) error {
	p.parked <- struct{}{}
	<-p.release
	return nil
}

// TestObserversSeeWhatReadersSee pins the one delivery time: a durable
// write reaches its row observers in the lock hold that applied it, not
// after the fsync. While each kind of write is parked in WaitDurable,
// Get and Scan already show it, the observer already holds its span and
// the chain of spans reaches the table's Version(), and a cluster
// following the base (shard.FollowBase) answers the row through Query.
func TestObserversSeeWhatReadersSee(t *testing.T) {
	db := relation.NewDB()
	tbl := db.MustCreate(relation.MustTable("KV",
		relation.NewSchema(relation.NotNullCol("ID", relation.TypeInt), relation.Col("Val", relation.TypeString)),
		relation.WithPrimaryKey("ID"), relation.WithShardKey("ID")))
	for id := int64(1); id <= 4; id++ {
		tbl.MustInsert(relation.Row{id, fmt.Sprint("v", id)})
	}
	cluster, err := shard.Split(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster.FollowBase(db)

	var mu sync.Mutex
	var spans []relation.VersionSpan
	tbl.Observe(func(_ relation.MutKind, _, _ relation.Row, span relation.VersionSpan) {
		mu.Lock()
		spans = append(spans, span)
		mu.Unlock()
	})
	from := tbl.Version()
	store := &parkedStore{parked: make(chan struct{}), release: make(chan struct{})}
	relation.AttachStorage(db, store)

	byID := func(id int64) func(relation.Row) bool {
		return func(r relation.Row) bool { return r[0] == id }
	}
	set := func(val string) func(relation.Row) relation.Row {
		return func(r relation.Row) relation.Row { r[1] = val; return r }
	}
	steps := []struct {
		name  string
		write func() error
		want  map[int64]string // every row of KV once the write is applied
	}{
		{"Insert", func() error { _, err := tbl.Insert(relation.Row{int64(5), "v5"}); return err },
			map[int64]string{1: "v1", 2: "v2", 3: "v3", 4: "v4", 5: "v5"}},
		{"UpdateByKey", func() error { return tbl.UpdateByKey([]relation.Value{int64(1)}, set("one")) },
			map[int64]string{1: "one", 2: "v2", 3: "v3", 4: "v4", 5: "v5"}},
		{"UpdateWhere", func() error {
			_, err := tbl.UpdateWhere(func(r relation.Row) bool { return r[0].(int64) >= 4 }, set("high"))
			return err
		}, map[int64]string{1: "one", 2: "v2", 3: "v3", 4: "high", 5: "high"}},
		{"DeleteWhere", func() error { _, err := tbl.DeleteWhere(byID(2)); return err },
			map[int64]string{1: "one", 3: "v3", 4: "high", 5: "high"}},
		{"Tx.Commit", func() error {
			tx := db.Begin()
			if _, err := tx.Insert(tbl, relation.Row{int64(6), "v6"}); err != nil {
				tx.Rollback()
				return err
			}
			if _, err := tx.UpdateWhere(tbl, byID(3), set("three")); err != nil {
				tx.Rollback()
				return err
			}
			return tx.Commit()
		}, map[int64]string{1: "one", 3: "three", 4: "high", 5: "high", 6: "v6"}},
	}
	for _, step := range steps {
		done := make(chan error, 1)
		go func() { done <- step.write() }()
		select {
		case <-store.parked:
		case err := <-done:
			t.Fatalf("%s returned (%v) without waiting for durability", step.name, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never reached WaitDurable", step.name)
		}

		got := map[int64]string{}
		tbl.Scan(func(_ int, r relation.Row) bool {
			got[r[0].(int64)] = r[1].(string)
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(step.want) {
			t.Errorf("%s: Scan = %v, want %v", step.name, got, step.want)
		}
		for id, val := range step.want {
			if r, ok := tbl.Get(id); !ok || r[1] != val {
				t.Errorf("%s: Get(%d) = %v, want %q", step.name, id, r, val)
			}
		}

		mu.Lock()
		at, chained := from, true
		for _, sp := range spans {
			chained = chained && sp.After == at
			at = sp.Through
		}
		mu.Unlock()
		if v := tbl.Version(); !chained || at != v {
			t.Errorf("%s: the observer's spans reach version %d (chained %v), the table is at %d", step.name, at, chained, v)
		}

		for id := int64(1); id <= 6; id++ {
			res, err := cluster.Query(`SELECT Val FROM KV WHERE ID = ?`, id)
			if err != nil {
				t.Fatal(err)
			}
			want, live := step.want[id]
			switch {
			case !live && len(res.Rows) != 0:
				t.Errorf("%s: the cluster still answers deleted row %d: %v", step.name, id, res.Rows)
			case live && (len(res.Rows) != 1 || res.Rows[0][0] != want):
				t.Errorf("%s: the cluster answers row %d with %v, want %q", step.name, id, res.Rows, want)
			}
		}

		store.release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
	if st := cluster.Stats(); st.ApplyErrors != 0 {
		t.Fatalf("the cluster diverged from its base: %+v", st)
	}
}
