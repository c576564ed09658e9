package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one slow-query record: what ran, how long it took, and
// why — the ANALYZE-annotated plan (captured on the statement's next
// execution, see Offer) and how much of the latency was WAL
// durability wait.
type SlowEntry struct {
	SQL       string    `json:"sql"`
	Params    []string  `json:"params,omitempty"`
	Route     string    `json:"route,omitempty"`
	Rows      int       `json:"rows"`
	LatencyNs int64     `json:"latency_ns"`
	Plan      string    `json:"plan,omitempty"`
	WALOwnNs  int64     `json:"wal_own_fsync_ns,omitempty"`
	WALRideNs int64     `json:"wal_ride_ns,omitempty"`
	Err       string    `json:"error,omitempty"`
	At        time.Time `json:"at"`
}

// SlowLog keeps the N slowest statements seen so far, ordered
// slowest-first. Admission is cheap to reject: once the log is full,
// a latency at or below the current floor (the Nth-slowest latency)
// returns without taking the lock.
//
// Entries are admitted without a plan — running EXPLAIN ANALYZE
// inline would double the very execution that was already slow.
// Instead the recording layer arms the statement's fingerprint and
// the statement's NEXT execution runs instrumented, back-filling the
// entry via AttachPlan (the classic deferred-capture design: the plan
// shown may be from a later, faster run of the same statement).
type SlowLog struct {
	mu      sync.Mutex
	max     int
	entries []SlowEntry // sorted descending by LatencyNs
	floor   atomic.Int64
	redact  atomic.Bool
}

// NewSlowLog returns a log keeping the n slowest statements.
func NewSlowLog(n int) *SlowLog {
	if n < 1 {
		n = 1
	}
	return &SlowLog{max: n}
}

// SetRedact toggles parameter redaction: when on, entries store no
// bound parameter values (for logs that may leave the machine).
func (l *SlowLog) SetRedact(on bool) { l.redact.Store(on) }

// Redacting reports whether parameter redaction is on.
func (l *SlowLog) Redacting() bool { return l.redact.Load() }

// Floor returns the latency a statement must exceed to be admitted
// once the log is full (0 until then).
func (l *SlowLog) Floor() int64 { return l.floor.Load() }

// Offer proposes an entry, reporting whether it was admitted.
func (l *SlowLog) Offer(e SlowEntry) bool {
	if l == nil {
		return false
	}
	if e.LatencyNs <= l.floor.Load() {
		return false
	}
	if l.redact.Load() {
		e.Params = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := len(l.entries)
	for i > 0 && l.entries[i-1].LatencyNs < e.LatencyNs {
		i--
	}
	if i >= l.max {
		return false
	}
	l.entries = append(l.entries, SlowEntry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
	if len(l.entries) > l.max {
		l.entries = l.entries[:l.max]
	}
	if len(l.entries) == l.max {
		l.floor.Store(l.entries[len(l.entries)-1].LatencyNs)
	}
	return true
}

// AttachPlan back-fills the newest plan-less entry for sql, reporting
// whether one was found.
func (l *SlowLog) AttachPlan(sql, plan string) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var target *SlowEntry
	for i := range l.entries {
		e := &l.entries[i]
		if e.SQL != sql || e.Plan != "" {
			continue
		}
		if target == nil || e.At.After(target.At) {
			target = e
		}
	}
	if target == nil {
		return false
	}
	target.Plan = plan
	return true
}

// Entries returns a slowest-first copy of the log.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SlowEntry(nil), l.entries...)
}
