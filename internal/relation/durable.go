package relation

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"courserank/internal/wal"
)

// DurableStore is the disk-backed Storage implementation: every
// mutation is journaled through an append-only WAL before the mutator
// returns, and checkpoints write a slot-preserving snapshot of the
// whole database to one checksummed file, after which the WAL is
// truncated. OpenDurable recovers by loading the checkpoint snapshot
// and replaying WAL records past the checkpoint LSN slot-for-slot.
//
// Layout under the store directory:
//
//	checkpoint.db  — the latest snapshot: header {magic, format version,
//	                 checkpoint LSN, payload length}, JSON-lines payload,
//	                 CRC32-Castagnoli over both
//	checkpoint.tmp — the next snapshot while it is being written
//	wal.log        — redo log of records since (at most) the checkpoint LSN
//
// A checkpoint writes checkpoint.tmp, fsyncs it, renames it over
// checkpoint.db and fsyncs the directory, so a crash at any instant
// leaves either the old image or the new one whole; a leftover
// checkpoint.tmp is discarded at open.
type DurableStore struct {
	dir string
	db  *DB
	log *wal.Log

	// gate is the checkpoint gate: mutators hold the shared side across
	// apply+journal (Storage.BeginMutate/EndMutate); Checkpoint holds it
	// exclusively, freezing the database on a record boundary.
	gate sync.RWMutex
	ckMu sync.Mutex // serializes whole checkpoint runs

	ckEvery       int64
	sinceCk       atomic.Int64
	ckLSN         atomic.Uint64
	checkpointing atomic.Bool
	checkpoints   atomic.Uint64
	recovered     int
	closed        atomic.Bool
}

// DefaultCheckpointEvery is the auto-checkpoint threshold (WAL records
// appended since the last checkpoint) when DurableOptions.CheckpointEvery
// is zero.
const DefaultCheckpointEvery = 4096

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Sync selects the commit policy: SyncAlways fsyncs before a
	// mutator returns (group commit lets concurrent committers share
	// one fsync); SyncNone returns immediately and a background flusher
	// bounds the staleness window.
	Sync wal.SyncPolicy
	// FlushEvery is the background flush cadence under SyncNone
	// (default 100ms).
	FlushEvery time.Duration
	// CheckpointEvery is the number of WAL records between automatic
	// checkpoints; 0 means DefaultCheckpointEvery, negative disables
	// auto-checkpointing (explicit Checkpoint calls only).
	CheckpointEvery int
}

// WAL record types.
const (
	recDML      byte = 1
	recCreate   byte = 2
	recDrop     byte = 3
	recAlter    byte = 4
	recTxDML    byte = 5 // transaction statement effects; redo only if committed
	recTxCommit byte = 6 // transaction commit marker
	recTxAbort  byte = 7 // transaction abort marker; older logs carry it, replay skips it
)

// walMut is one row effect inside a DML record.
type walMut struct {
	Op   string          `json:"op"` // "i", "u", "d"
	Slot int             `json:"s"`
	Row  json.RawMessage `json:"r,omitempty"` // JSON array of cells
}

type walDML struct {
	Table string   `json:"t"`
	Muts  []walMut `json:"m"`
}

// walTxDML is one transaction statement's row effects. Unlike walDML it
// is a no-op at replay unless the transaction's commit record is also
// in the log: recovery redoes transactions as a unit or not at all.
type walTxDML struct {
	Tx    uint64   `json:"x"`
	Table string   `json:"t"`
	Muts  []walMut `json:"m"`
}

// walTx is a commit (or, in older logs, abort) marker.
type walTx struct {
	Tx uint64 `json:"x"`
}

type walDrop struct {
	Table string `json:"t"`
}

type walAlter struct {
	Table string `json:"t"`
	Col   string `json:"c"`
}

// Checkpoint file names and framing. The header is ckMagic, a uint32
// format version, the uint64 checkpoint LSN (WAL records at or below it
// are in the snapshot) and the uint64 payload length, little-endian;
// the payload follows, then a CRC32-Castagnoli trailer.
const (
	checkpointFile = "checkpoint.db"
	checkpointTmp  = "checkpoint.tmp"
	legacyPageFile = "pages.db" // the page-file layout this format replaced

	ckMagic      = "CRCKPT\r\n"
	ckVersion    = 1
	ckHeaderSize = len(ckMagic) + 4 + 8 + 8
	ckSumSize    = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCheckpointSum marks a checkpoint file whose contents do not match
// its checksum.
var errCheckpointSum = errors.New("checksum mismatch")

func checkpointHeader(lsn, payloadLen uint64) []byte {
	h := make([]byte, 0, ckHeaderSize)
	h = append(h, ckMagic...)
	h = binary.LittleEndian.AppendUint32(h, ckVersion)
	h = binary.LittleEndian.AppendUint64(h, lsn)
	return binary.LittleEndian.AppendUint64(h, payloadLen)
}

// durableHeader heads one table in the checkpoint snapshot. The snapshot
// preserves slot layout: Slots is the length of the row slice including
// tombstones, and each row line carries its slot, so post-checkpoint WAL
// records keep addressing the right rows.
type durableHeader struct {
	snapshotHeader
	Slots    int   `json:"slots"`
	NextAuto int64 `json:"nextAuto"`
}

// OpenDurable opens (or creates) a durable database in dir: it loads
// the checkpoint snapshot, replays committed WAL records past the
// checkpoint LSN, and attaches the store so every subsequent mutation
// is journaled. The returned DB is ready to serve.
func OpenDurable(dir string, opts DurableOptions) (*DB, *DurableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("relation: durable open: %w", err)
	}
	db := NewDB()
	ckLSN, err := loadCheckpoint(dir, db)
	if err != nil {
		return nil, nil, err
	}
	log, recs, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{Sync: opts.Sync, FlushEvery: opts.FlushEvery})
	if err != nil {
		return nil, nil, fmt.Errorf("relation: durable open: %w", err)
	}
	s := &DurableStore{dir: dir, db: db, log: log, ckEvery: int64(opts.CheckpointEvery)}
	if opts.CheckpointEvery == 0 {
		s.ckEvery = DefaultCheckpointEvery
	}
	s.ckLSN.Store(ckLSN)
	if err := s.replay(recs, ckLSN); err != nil {
		log.Close()
		return nil, nil, err
	}
	// Snapshot load and replay both poke slots directly; settle the
	// free lists before the first live insert.
	for _, name := range db.Names() {
		t := db.MustTable(name)
		t.mu.Lock()
		t.rebuildFreeLocked()
		t.mu.Unlock()
	}
	s.sinceCk.Store(int64(s.recovered))
	db.attachStorage(s)
	return db, s, nil
}

// loadCheckpoint reads dir's checkpoint file into db and returns its
// LSN; a directory without one (first run, or no checkpoint yet) yields
// an empty database and LSN 0. The whole file is verified against its
// checksum before the first row is applied. A checkpoint.tmp left by a
// crash before the rename is removed.
func loadCheckpoint(dir string, db *DB) (uint64, error) {
	if _, err := os.Stat(filepath.Join(dir, legacyPageFile)); err == nil {
		return 0, fmt.Errorf("relation: durable open: %s holds %s, the page-file layout this version no longer reads", dir, legacyPageFile)
	}
	if err := os.Remove(filepath.Join(dir, checkpointTmp)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("relation: durable open: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("relation: durable open: %w", err)
	}
	lsn, payload, err := verifyCheckpoint(data)
	if err != nil {
		return 0, fmt.Errorf("relation: %s: %w", checkpointFile, err)
	}
	return lsn, loadDurableSnapshot(db, payload)
}

// verifyCheckpoint checks a checkpoint file's framing and checksum and
// returns its LSN and payload.
func verifyCheckpoint(data []byte) (lsn uint64, payload []byte, err error) {
	if len(data) < ckHeaderSize+ckSumSize {
		return 0, nil, fmt.Errorf("truncated: %d bytes, header and checksum need %d", len(data), ckHeaderSize+ckSumSize)
	}
	head := data[:ckHeaderSize]
	if string(head[:len(ckMagic)]) != ckMagic {
		return 0, nil, errors.New("bad magic: not a checkpoint file")
	}
	fields := head[len(ckMagic):]
	if v := binary.LittleEndian.Uint32(fields); v != ckVersion {
		return 0, nil, fmt.Errorf("format version %d, this build reads %d", v, ckVersion)
	}
	lsn = binary.LittleEndian.Uint64(fields[4:])
	body := data[ckHeaderSize : len(data)-ckSumSize]
	if n := binary.LittleEndian.Uint64(fields[12:]); n != uint64(len(body)) {
		return 0, nil, fmt.Errorf("truncated: holds %d payload bytes, header says %d", len(body), n)
	}
	// The sum runs over the payload, then the header: the order the
	// writer learns them in (see writeCheckpoint).
	sum := crc32.Update(crc32.Checksum(body, castagnoli), castagnoli, head)
	if want := binary.LittleEndian.Uint32(data[len(data)-ckSumSize:]); sum != want {
		return 0, nil, fmt.Errorf("%w: computed %08x, stored %08x", errCheckpointSum, sum, want)
	}
	return lsn, body, nil
}

// loadDurableSnapshot decodes a slot-preserving snapshot into db.
func loadDurableSnapshot(db *DB, data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		buf := sc.Bytes()
		if len(bytes.TrimSpace(buf)) == 0 {
			continue
		}
		var head durableHeader
		if err := json.Unmarshal(buf, &head); err != nil {
			return fmt.Errorf("relation: checkpoint header: %w", err)
		}
		t, err := tableFromHeader(head.snapshotHeader)
		if err != nil {
			return fmt.Errorf("relation: checkpoint: %w", err)
		}
		if err := db.Create(t); err != nil {
			return fmt.Errorf("relation: checkpoint: %w", err)
		}
		cols := t.Schema().Columns()
		for i := 0; i < head.Rows; i++ {
			if !sc.Scan() {
				return fmt.Errorf("relation: checkpoint table %s: truncated at row %d of %d", head.Table, i, head.Rows)
			}
			var line []json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return fmt.Errorf("relation: checkpoint table %s row %d: %w", head.Table, i, err)
			}
			if len(line) == 0 {
				return fmt.Errorf("relation: checkpoint table %s row %d: no slot", head.Table, i)
			}
			var slot int
			if err := json.Unmarshal(line[0], &slot); err != nil {
				return fmt.Errorf("relation: checkpoint table %s row %d slot: %w", head.Table, i, err)
			}
			row, err := decodeRow(line[1:], cols)
			if err != nil {
				return fmt.Errorf("relation: checkpoint table %s row %d: %w", head.Table, i, err)
			}
			if err := t.applyInsertSlot(slot, row); err != nil {
				return err
			}
		}
		// Tombstone tail: grow the slice to the recorded slot count so
		// replayed records addressing trailing tombstones stay in range.
		t.mu.Lock()
		for len(t.rows) < head.Slots {
			t.rows = append(t.rows, nil)
		}
		if head.NextAuto > t.nextAut {
			t.nextAut = head.NextAuto
		}
		t.mu.Unlock()
	}
	return sc.Err()
}

// replay applies committed WAL records past the checkpoint LSN. Records
// at or below ckLSN are already inside the snapshot — they survive in
// the log only when a crash landed between the checkpoint's rename and
// its WAL truncation. Replay is two-pass: the first pass collects
// the IDs of transactions whose commit record made it to the log, the
// second applies records in LSN order, skipping transaction effects
// whose commit never landed — a crash mid-transaction loses the whole
// transaction, never a prefix. New transaction ids continue past every
// id in the log, so a later commit record can never adopt the records
// of a transaction that did not commit.
func (s *DurableStore) replay(recs []wal.Record, ckLSN uint64) error {
	var committed map[uint64]bool
	for _, rec := range recs {
		if rec.LSN <= ckLSN || rec.Type != recTxCommit {
			continue
		}
		var op walTx
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return fmt.Errorf("relation: recovery lsn %d: %w", rec.LSN, err)
		}
		if committed == nil {
			committed = make(map[uint64]bool)
		}
		committed[op.Tx] = true
	}
	for _, rec := range recs {
		if rec.LSN <= ckLSN {
			continue
		}
		if err := s.applyRecord(rec, committed); err != nil {
			return fmt.Errorf("relation: recovery lsn %d: %w", rec.LSN, err)
		}
		s.recovered++
	}
	return nil
}

// applyDML redoes one statement's row effects slot-for-slot.
func (s *DurableStore) applyDML(table string, muts []walMut) error {
	t, ok := s.db.Table(table)
	if !ok {
		return fmt.Errorf("DML against unknown table %q", table)
	}
	cols := t.Schema().Columns()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range muts {
		switch m.Op {
		case "d":
			if err := t.applyDeleteSlot(m.Slot); err != nil {
				return err
			}
		case "i", "u":
			row, err := decodeWALRow(m.Row, cols)
			if err != nil {
				return err
			}
			if m.Op == "i" {
				err = t.applyInsertSlot(m.Slot, row)
			} else {
				err = t.applyUpdateSlot(m.Slot, row)
			}
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown mutation op %q", m.Op)
		}
	}
	return nil
}

func (s *DurableStore) applyRecord(rec wal.Record, committed map[uint64]bool) error {
	switch rec.Type {
	case recDML:
		var op walDML
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return err
		}
		return s.applyDML(op.Table, op.Muts)
	case recTxDML:
		var op walTxDML
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return err
		}
		if op.Tx > s.db.tx.lastID.Load() {
			s.db.tx.lastID.Store(op.Tx)
		}
		if !committed[op.Tx] {
			return nil // transaction never committed; drop its effects
		}
		return s.applyDML(op.Table, op.Muts)
	case recTxCommit, recTxAbort:
		return nil // markers; consumed by the first pass
	case recCreate:
		var head snapshotHeader
		if err := json.Unmarshal(rec.Data, &head); err != nil {
			return err
		}
		t, err := tableFromHeader(head)
		if err != nil {
			return err
		}
		return s.db.Create(t)
	case recDrop:
		var op walDrop
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return err
		}
		s.db.Drop(op.Table)
		return nil
	case recAlter:
		var op walAlter
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return err
		}
		t, ok := s.db.Table(op.Table)
		if !ok {
			return fmt.Errorf("ALTER against unknown table %q", op.Table)
		}
		return t.addOrderedIndexLocked(op.Col)
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
}

func decodeWALRow(raw json.RawMessage, cols []Column) (Row, error) {
	var cells []json.RawMessage
	if err := json.Unmarshal(raw, &cells); err != nil {
		return nil, err
	}
	return decodeRow(cells, cols)
}

// --- Storage interface --------------------------------------------------

// BeginMutate enters the checkpoint gate (shared side).
func (s *DurableStore) BeginMutate() { s.gate.RLock() }

// EndMutate leaves the checkpoint gate.
func (s *DurableStore) EndMutate() { s.gate.RUnlock() }

// LogMutations appends one redo record for a statement's row effects.
func (s *DurableStore) LogMutations(table string, muts []Mutation) (uint64, error) {
	wm, err := encodeWalMuts(muts)
	if err != nil {
		return 0, err
	}
	return s.append(recDML, walDML{Table: table, Muts: wm})
}

func encodeWalMuts(muts []Mutation) ([]walMut, error) {
	wm := make([]walMut, len(muts))
	for i, m := range muts {
		var raw json.RawMessage
		if m.Row != nil {
			b, err := json.Marshal([]Value(m.Row))
			if err != nil {
				return nil, fmt.Errorf("relation: encode row for WAL: %w", err)
			}
			raw = b
		}
		op := "i"
		switch m.Kind {
		case MutUpdate:
			op = "u"
		case MutDelete:
			op = "d"
		}
		wm[i] = walMut{Op: op, Slot: m.Slot, Row: raw}
	}
	return wm, nil
}

// LogTxMutations appends one transaction statement's row effects;
// replay ignores them unless tx's commit record follows.
func (s *DurableStore) LogTxMutations(tx uint64, table string, muts []Mutation) (uint64, error) {
	wm, err := encodeWalMuts(muts)
	if err != nil {
		return 0, err
	}
	return s.append(recTxDML, walTxDML{Tx: tx, Table: table, Muts: wm})
}

// LogTxCommit appends the commit record that makes tx's effects
// redo-visible at recovery.
func (s *DurableStore) LogTxCommit(tx uint64) (uint64, error) {
	return s.append(recTxCommit, walTx{Tx: tx})
}

// LogCreate appends a redo record carrying the table definition.
func (s *DurableStore) LogCreate(t *Table) (uint64, error) {
	return s.append(recCreate, headerFor(t))
}

// LogDrop appends a redo record dropping the named table.
func (s *DurableStore) LogDrop(name string) (uint64, error) {
	return s.append(recDrop, walDrop{Table: name})
}

// LogAlter appends a redo record adding an ordered index.
func (s *DurableStore) LogAlter(table, col string) (uint64, error) {
	return s.append(recAlter, walAlter{Table: table, Col: col})
}

func (s *DurableStore) append(typ byte, v any) (uint64, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	lsn, err := s.log.Append(typ, payload)
	if err == nil {
		s.sinceCk.Add(1)
	}
	return lsn, err
}

// WaitDurable blocks until lsn is durable under the commit policy, then
// triggers an auto-checkpoint if the WAL has grown past the threshold.
// Called outside the gate and every table lock.
func (s *DurableStore) WaitDurable(lsn uint64) error {
	err := s.log.Commit(lsn)
	s.maybeCheckpoint()
	return err
}

func (s *DurableStore) maybeCheckpoint() {
	if s.ckEvery <= 0 || s.sinceCk.Load() < s.ckEvery || s.closed.Load() {
		return
	}
	if !s.checkpointing.CompareAndSwap(false, true) {
		return // someone else is on it
	}
	defer s.checkpointing.Store(false)
	s.Checkpoint() // the unlucky committer crossing the threshold pays
}

// --- checkpointing ------------------------------------------------------

// Checkpoint freezes the database, writes a slot-preserving snapshot of
// every table to a new checkpoint file, renames it over the old one,
// and truncates the WAL. Mutators block for the duration (readers do
// not).
func (s *DurableStore) Checkpoint() error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if s.closed.Load() {
		return fmt.Errorf("relation: durable store closed")
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	lsn := s.log.LastLSN()
	if err := s.writeCheckpoint(lsn); err != nil {
		return fmt.Errorf("relation: checkpoint: %w", err)
	}
	if err := s.log.Truncate(lsn); err != nil {
		return err
	}
	s.ckLSN.Store(lsn)
	s.sinceCk.Store(0)
	s.checkpoints.Add(1)
	return nil
}

// encodeSnapshot streams every table to w in the slot-preserving
// format. Caller holds the gate exclusively, so table state cannot
// move; row reads still take each table's read lock for the race
// detector's sake.
func (s *DurableStore) encodeSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, name := range s.db.Names() {
		t := s.db.MustTable(name)
		// headerFor takes the table's read lock internally; build it
		// before entering our own RLock to avoid recursive locking.
		head := durableHeader{snapshotHeader: headerFor(t)}
		t.mu.RLock()
		head.Slots = len(t.rows)
		head.NextAuto = t.nextAut
		if err := enc.Encode(head); err != nil {
			t.mu.RUnlock()
			return err
		}
		for slot, r := range t.rows {
			if r == nil {
				continue
			}
			line := make([]any, 0, len(r)+1)
			line = append(line, slot)
			for _, c := range r {
				line = append(line, c)
			}
			if err := enc.Encode(line); err != nil {
				t.mu.RUnlock()
				return err
			}
		}
		t.mu.RUnlock()
	}
	return nil
}

// writeCheckpoint writes the snapshot as of lsn to checkpoint.tmp,
// fsyncs it, renames it over checkpoint.db — the commit point — and
// fsyncs the directory so the rename itself survives a crash. The
// payload is streamed, so its length is known only at the end: the
// header is written last, into the space left for it, and the checksum
// runs over the payload first and the header second.
func (s *DurableStore) writeCheckpoint(lsn uint64) (err error) {
	tmp := filepath.Join(s.dir, checkpointTmp)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err := f.Seek(int64(ckHeaderSize), io.SeekStart); err != nil {
		return err
	}
	sum := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<16)
	if err := s.encodeSnapshot(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	head := checkpointHeader(lsn, uint64(end)-uint64(ckHeaderSize))
	sum.Write(head)
	if _, err := f.Write(binary.LittleEndian.AppendUint32(nil, sum.Sum32())); err != nil {
		return err
	}
	if _, err := f.WriteAt(head, 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, checkpointFile)); err != nil {
		return err
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// --- lifecycle ----------------------------------------------------------

// Bulk runs fn with journaling detached — the unlogged fast path for
// initial data loads — then reattaches and checkpoints so the loaded
// state is durable. The store must not be serving concurrent mutators.
func (s *DurableStore) Bulk(fn func() error) error {
	s.db.detachStorage()
	err := fn()
	s.db.attachStorage(s)
	if err != nil {
		return err
	}
	return s.Checkpoint()
}

// Close drains the store: outstanding WAL records are synced, but the
// WAL is NOT truncated — reopening replays it. Call Checkpoint first
// for a clean (replay-free) shutdown. Idempotent.
func (s *DurableStore) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.ckMu.Lock() // let an in-flight checkpoint finish
	defer s.ckMu.Unlock()
	return s.log.Close()
}

// DurableStats is a point-in-time view of the store for /api/stats.
type DurableStats struct {
	Dir              string    `json:"dir"`
	Policy           string    `json:"policy"`
	WAL              wal.Stats `json:"wal"`
	Checkpoints      uint64    `json:"checkpoints"`
	CheckpointLSN    uint64    `json:"checkpointLSN"`
	RecordsSinceCk   int64     `json:"recordsSinceCheckpoint"`
	RecoveredRecords int       `json:"recoveredRecords"`
}

// Stats returns WAL and checkpoint counters.
func (s *DurableStore) Stats() DurableStats {
	ws := s.log.Stats()
	return DurableStats{
		Dir:              s.dir,
		Policy:           s.log.Policy().String(),
		WAL:              ws,
		Checkpoints:      s.checkpoints.Load(),
		CheckpointLSN:    s.ckLSN.Load(),
		RecordsSinceCk:   s.sinceCk.Load(),
		RecoveredRecords: s.recovered,
	}
}
