package relation

import (
	"encoding/json"
	"fmt"
)

// The JSON table and row codec of the durable backend (durable.go): a
// table header (schema, keys, indexes) heads each table in the
// checkpoint file and is the payload of a WAL CREATE record, and rows
// travel as JSON arrays of cells in both.

// snapshotHeader describes one table: its declared shape and, in a
// checkpoint, how many row lines follow.
type snapshotHeader struct {
	Table   string       `json:"table"`
	Columns []columnJSON `json:"columns"`
	PK      []string     `json:"pk,omitempty"`
	AutoInc string       `json:"autoInc,omitempty"`
	Indexes []string     `json:"indexes,omitempty"`
	Ordered []string     `json:"ordered,omitempty"`
	Rows    int          `json:"rows"`
}

type columnJSON struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	NotNull bool   `json:"notNull,omitempty"`
}

var typeByName = map[string]Type{
	"INT": TypeInt, "FLOAT": TypeFloat, "TEXT": TypeString, "BOOL": TypeBool,
}

// tableFromHeader materializes an empty table matching a stream
// header's declared shape, for the durable backend's recovery paths
// (checkpoint load, CREATE-record replay).
func tableFromHeader(head snapshotHeader) (*Table, error) {
	cols := make([]Column, len(head.Columns))
	for i, c := range head.Columns {
		typ, ok := typeByName[c.Type]
		if !ok {
			return nil, fmt.Errorf("table %s: unknown type %q", head.Table, c.Type)
		}
		cols[i] = Column{Name: c.Name, Type: typ, NotNull: c.NotNull}
	}
	var opts []TableOption
	if len(head.PK) > 0 {
		opts = append(opts, WithPrimaryKey(head.PK...))
	}
	if head.AutoInc != "" {
		opts = append(opts, WithAutoIncrement(head.AutoInc))
	}
	for _, ix := range head.Indexes {
		opts = append(opts, WithIndex(ix))
	}
	for _, ix := range head.Ordered {
		opts = append(opts, WithOrderedIndex(ix))
	}
	t, err := NewTable(head.Table, NewSchema(cols...), opts...)
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", head.Table, err)
	}
	return t, nil
}

// headerFor builds the header describing t, for checkpoint snapshots
// and CREATE records.
func headerFor(t *Table) snapshotHeader {
	head := snapshotHeader{
		Table:   t.Name(),
		PK:      t.PrimaryKey(),
		AutoInc: t.AutoIncrement(),
		Indexes: t.SecondaryIndexes(),
		Ordered: t.OrderedIndexes(),
		Rows:    t.Len(),
	}
	for _, c := range t.Schema().Columns() {
		head.Columns = append(head.Columns, columnJSON{Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull})
	}
	return head
}

// decodeRow decodes one row's JSON cells against the schema's column
// types — the one row decoder behind checkpoint loading and WAL replay.
func decodeRow(cells []json.RawMessage, cols []Column) (Row, error) {
	if len(cells) != len(cols) {
		return nil, fmt.Errorf("%w: row has %d cells, schema wants %d", ErrArity, len(cells), len(cols))
	}
	row := make(Row, len(cols))
	for j, cell := range cells {
		v, err := decodeCell(cell, cols[j].Type)
		if err != nil {
			return nil, fmt.Errorf("col %s: %w", cols[j].Name, err)
		}
		row[j] = v
	}
	return row, nil
}

// decodeCell parses one JSON cell into the canonical value for the
// column type. JSON numbers arrive as float64; INT columns restore
// int64 exactly via json.Number semantics.
func decodeCell(raw json.RawMessage, typ Type) (Value, error) {
	if string(raw) == "null" {
		return nil, nil
	}
	switch typ {
	case TypeInt:
		var n int64
		if err := json.Unmarshal(raw, &n); err != nil {
			return nil, err
		}
		return n, nil
	case TypeFloat:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, err
		}
		return f, nil
	case TypeString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return s, nil
	case TypeBool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown column type")
}
