package matview

import (
	"slices"
	"sync"
	"time"

	"courserank/internal/relation"
)

// changeLog is what a maintained view remembers of one dependency table
// between two reads: for every committed row change the observer
// delivered, the version span it accounts for and the view keys it
// touched. The observer appends and does nothing else; reads hold mu
// only to copy keys out, never while they probe a table.
type changeLog struct {
	tbl *relation.Table

	mu      sync.Mutex
	entries []change // ascending by span
}

type change struct {
	span   relation.VersionSpan
	keys   []any
	opaque bool // Keys could not tell which keys the change touched
}

// maxLogged caps a log nobody reads. A full log forgets itself, which
// leaves a gap, and the next read rebuilds — by then the cheaper path
// as well.
const maxLogged = 4096

func (lg *changeLog) add(c change) {
	lg.mu.Lock()
	if len(lg.entries) == maxLogged {
		clear(lg.entries)
		lg.entries = lg.entries[:0]
	}
	lg.entries = append(lg.entries, c)
	lg.mu.Unlock()
}

// collect hands add every key logged past version from and returns the
// version the log reaches — its head. ok is false when the spans do not
// chain from from to the head without a gap, or one of them is opaque:
// the log then cannot say what changed.
func (lg *changeLog) collect(from uint64, add func(key any)) (head uint64, ok bool) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	head = from
	for _, c := range lg.entries {
		if c.span.Through <= head {
			continue // at or below the snapshot: already in it
		}
		if c.span.After != head || c.opaque {
			return head, false
		}
		for _, k := range c.keys {
			add(k)
		}
		head = c.span.Through
	}
	return head, true
}

// trim drops the entries a snapshot at version upto already contains.
func (lg *changeLog) trim(upto uint64) {
	lg.mu.Lock()
	i := 0
	for i < len(lg.entries) && lg.entries[i].span.Through <= upto {
		i++
	}
	n := copy(lg.entries, lg.entries[i:])
	clear(lg.entries[n:])
	lg.entries = lg.entries[:n]
	lg.mu.Unlock()
}

// attach makes sure table t, registered as dependency name, feeds a
// change log of this view. Observers cannot be detached: the log of a
// table since dropped or replaced is simply forgotten here, and what its
// observer still appends is bounded by maxLogged.
func (v *View) attach(name string, t *relation.Table) {
	v.mu.Lock()
	if lg := v.logs[name]; lg != nil && lg.tbl == t {
		v.mu.Unlock()
		return
	}
	lg := &changeLog{tbl: t}
	if v.logs == nil {
		v.logs = make(map[string]*changeLog)
	}
	v.logs[name] = lg
	v.mu.Unlock()
	t.Observe(func(kind relation.MutKind, before, after relation.Row, span relation.VersionSpan) {
		keys, ok := v.keys(name, kind, before, after)
		lg.add(change{span: span, keys: keys, opaque: !ok})
	})
}

// trimLogs drops from every log what a snapshot stamped fps contains.
// Caller holds v.mu.
func (v *View) trimLogs(fps []tableFP) {
	for _, fp := range fps {
		if lg := v.logs[fp.name]; lg != nil && lg.tbl == fp.tbl {
			lg.trim(fp.version)
		}
	}
}

// advance brings the snapshot up to the heads of the change logs under
// the single-flight lock: concurrent stale readers take turns, and all
// but the first find the work done. patched counts the keys this call
// recomputed. ok is false when a log has a gap or an opaque change, or
// the patch failed — only a rebuild helps then.
//
// Every delivery lands in the change log within the lock hold that moved
// its table's version, so a log's head is never behind a change the
// reader could see. A table whose version is past its log's head moved
// with nothing delivered, which changed no row (see relation.RowObserver):
// the snapshot is caught up all the same. It stays stamped with the
// heads, not with the tables' versions, so the next delivery, which
// chains from the table's version, shows the gap and rebuilds; and a
// change that lands while the patch runs is recomputed again by the read
// after it — harmless.
func (v *View) advance() (_ *snapshot, patched int, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.snap.Load()
	if s == nil {
		return nil, 0, false
	}
	fps := s.fps // cloned at the first dependency that moves
	var keys []any
	var seen map[any]struct{}
	moved := false
	for i, fp := range s.fps {
		if fp.tbl == nil {
			continue // absent at build time; the caller checked it still is
		}
		_, cur := fp.tbl.ViewFingerprint()
		if cur == fp.version {
			continue
		}
		lg := v.logs[fp.name]
		if lg == nil || lg.tbl != fp.tbl {
			return s, 0, false
		}
		head, ok := lg.collect(fp.version, func(k any) {
			if _, dup := seen[k]; dup {
				return
			}
			if seen == nil {
				seen = make(map[any]struct{})
			}
			seen[k] = struct{}{}
			keys = append(keys, k)
		})
		if !ok {
			return s, 0, false
		}
		if head != fp.version {
			if !moved {
				fps, moved = slices.Clone(s.fps), true
			}
			fps[i].version = head
		}
	}
	if !moved {
		return s, 0, true
	}
	val := s.value
	if len(keys) > 0 {
		var err error
		if val, err = guarded(func() (any, error) { return v.patch(s.value, keys) }); err != nil {
			v.errors.Add(1)
			return s, 0, false
		}
	}
	ns := &snapshot{value: val, fps: fps, builtAt: time.Now(), buildDur: s.buildDur}
	v.snap.Store(ns)
	v.trimLogs(fps)
	v.patches.Add(1)
	return ns, len(keys), true
}
