package sqlmini

import (
	"fmt"

	"courserank/internal/relation"
)

// This file is the transaction surface of the SQL engine. A Tx wraps a
// relation.Tx in a transaction-bound Engine handle — the same immutable
// derived-handle pattern as ForceScan/WithBatchSize — so every Query,
// Exec, prepared Stmt and streaming Rows executed through it reads the
// transaction's snapshot (plus its own staged writes) and stages its
// writes invisibly until Commit. A Session adds the SQL-level surface:
// BEGIN / COMMIT / ROLLBACK statements switch the session between its
// autocommit engine and an open transaction handle.

// Tx is a snapshot-isolation transaction bound to an engine. All reads
// see the database as of BeginTx plus the transaction's own writes;
// writes are invisible to other handles until Commit. Write-write
// conflicts (first-committer-wins) surface as relation.ErrTxConflict
// and poison the transaction — only Rollback, or Commit (which reports
// the conflict and rolls back), remain. A Tx shares the engine's plan
// cache and is not safe for concurrent use by multiple goroutines.
type Tx struct {
	h   *Engine // transaction-bound handle: h.tx == rtx
	rtx *relation.Tx
	tag string // observability tag linking slow-log entries to the tx outcome
}

// BeginTx opens a snapshot-isolation transaction. Streaming Rows opened
// through the transaction must be drained or closed before Commit or
// Rollback — afterwards the snapshot is released and version garbage
// collection may reclaim the row versions the cursor was reading.
func (e *Engine) BeginTx() *Tx {
	rtx := e.db.Begin()
	h := &Engine{db: e.db, cache: e.cache, forceScan: e.forceScan, batchSize: e.batchSize, tx: rtx, obsBox: e.obsBox}
	tx := &Tx{h: h, rtx: rtx}
	if h.Observer() != nil {
		tx.tag = fmt.Sprintf("tx-%d", txSeq.Add(1))
	}
	return tx
}

// Query executes a SELECT inside the transaction.
func (tx *Tx) Query(sql string, args ...any) (*Result, error) {
	return tx.h.Query(sql, args...)
}

// Exec executes a non-SELECT statement inside the transaction.
func (tx *Tx) Exec(sql string, args ...any) (int, error) {
	return tx.h.Exec(sql, args...)
}

// QueryRows executes a SELECT inside the transaction, streaming.
func (tx *Tx) QueryRows(sql string, args ...any) (*Rows, error) {
	return tx.h.QueryRows(sql, args...)
}

// Commit makes the transaction's writes visible atomically and waits
// for the WAL commit record to be durable. A conflicted transaction
// rolls back and reports relation.ErrTxConflict.
func (tx *Tx) Commit() error {
	err := tx.rtx.Commit()
	if c := tx.h.Observer(); c != nil {
		tx.recordOutcome(c, err, false)
	}
	return err
}

// Rollback discards the transaction's staged writes.
func (tx *Tx) Rollback() error {
	err := tx.rtx.Rollback()
	if c := tx.h.Observer(); c != nil {
		tx.recordOutcome(c, err, true)
	}
	return err
}

// QueryTx executes a prepared SELECT inside tx, sharing the statement's
// cached plan.
func (s *Stmt) QueryTx(tx *Tx, args ...any) (*Result, error) {
	en, err := s.current()
	if err != nil {
		return nil, err
	}
	if c := tx.h.Observer(); c != nil {
		return s.observedQuery(c, tx.h, en, "tx", tx.tag, args)
	}
	return tx.h.queryEntry(en, args)
}

// ExecTx executes a prepared non-SELECT statement inside tx.
func (s *Stmt) ExecTx(tx *Tx, args ...any) (int, error) {
	en, err := s.current()
	if err != nil {
		return 0, err
	}
	if c := tx.h.Observer(); c != nil {
		return s.observedExec(c, tx.h, en, "tx", tx.tag, args)
	}
	return tx.h.execEntry(en, args)
}

// QueryRowsTx executes a prepared SELECT inside tx, streaming.
func (s *Stmt) QueryRowsTx(tx *Tx, args ...any) (*Rows, error) {
	en, err := s.current()
	if err != nil {
		return nil, err
	}
	return tx.h.rowsEntry(en, args)
}

// Session is a stateful SQL endpoint over an engine: it executes
// statements like the engine does, but interprets BEGIN / COMMIT /
// ROLLBACK, routing statements between transactions through the open
// transaction. One Session serves one client conversation; it is not
// safe for concurrent use.
type Session struct {
	e  *Engine
	tx *Tx
}

// NewSession returns a session in autocommit mode.
func NewSession(e *Engine) *Session { return &Session{e: e} }

// InTx reports whether a transaction is open.
func (s *Session) InTx() bool { return s.tx != nil }

// handle is the engine view current statements execute under.
func (s *Session) handle() *Engine {
	if s.tx != nil {
		return s.tx.h
	}
	return s.e
}

// Exec executes one statement. BEGIN opens a transaction (error if one
// is open), COMMIT/ROLLBACK close it (error if none is), and every
// other statement runs under the open transaction or in autocommit.
// A failed COMMIT leaves the session in autocommit mode: the
// transaction is gone either way.
func (s *Session) Exec(sql string, args ...any) (int, error) {
	en, err := s.e.entryFor(sql)
	if err != nil {
		return 0, err
	}
	switch en.ast.(type) {
	case *BeginStmt:
		if s.tx != nil {
			return 0, fmt.Errorf("sqlmini: transaction already open")
		}
		s.tx = s.e.BeginTx()
		return 0, nil
	case *CommitStmt:
		if s.tx == nil {
			return 0, fmt.Errorf("sqlmini: COMMIT outside a transaction")
		}
		tx := s.tx
		s.tx = nil
		return 0, tx.Commit()
	case *RollbackStmt:
		if s.tx == nil {
			return 0, fmt.Errorf("sqlmini: ROLLBACK outside a transaction")
		}
		tx := s.tx
		s.tx = nil
		return 0, tx.Rollback()
	}
	return s.handle().execEntry(en, args)
}

// Query executes a SELECT under the session's current visibility.
func (s *Session) Query(sql string, args ...any) (*Result, error) {
	return s.handle().Query(sql, args...)
}

// QueryRows executes a SELECT under the session's current visibility,
// streaming.
func (s *Session) QueryRows(sql string, args ...any) (*Rows, error) {
	return s.handle().QueryRows(sql, args...)
}

// Close rolls back any open transaction; for defer at end of a
// session's life.
func (s *Session) Close() error {
	if s.tx == nil {
		return nil
	}
	tx := s.tx
	s.tx = nil
	return tx.Rollback()
}
