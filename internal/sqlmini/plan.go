package sqlmini

import (
	"fmt"
	"strings"
)

// accessKind enumerates the access paths the planner can choose for a
// base table.
type accessKind uint8

const (
	// accessScan reads every live row, applying pushed filters inline.
	accessScan accessKind = iota
	// accessPK resolves the row by primary-key point lookup.
	accessPK
	// accessIndex probes a secondary hash index with one key.
	accessIndex
	// accessRange walks an ordered secondary index between two bounds,
	// yielding rows in key order.
	accessRange
)

// scanNode is one base-table access: the path the planner chose plus the
// single-table predicates pushed below any joins.
type scanNode struct {
	ref    TableRef
	cols   []colRef // output columns, qualified by the binding name
	access accessKind

	// accessPK: probeKeys align with the table's primary-key columns.
	// accessIndex: probeCol names the indexed column; probeKeys holds
	// its one equality key.
	probeCol  string
	probeKeys []Expr

	// accessRange: rangeCol names the ordered-indexed column; a nil
	// bound expression leaves that end open (both nil means an unbounded
	// ordered walk, adopted for ORDER BY elision). Bound
	// values evaluate when the cursor opens (they may be late-bound
	// params). rangeDesc walks the index backwards — keys descending,
	// slots ascending within a key — eliding ORDER BY rangeCol DESC.
	rangeCol         string
	rangeLo, rangeHi Expr
	loInc, hiInc     bool
	rangeDesc        bool

	// filter holds pushed conjuncts evaluated against base rows during
	// the scan or after the probe; bound at plan time when resolvable.
	filter []Expr

	est       float64 // estimated output rows
	tableRows int     // table size when planned
}

// joinNode INNER-joins the accumulated left pipeline with one scan.
type joinNode struct {
	scan *scanNode

	// Hash-join equi keys, resolved to column positions in the combined
	// left rowset and the right scan's rowset. Empty means nested loop.
	leftKeys, rightKeys []int
	keyText             []string // rendered "l = r" pairs for Explain

	// residual conjuncts evaluated per joined pair (bound when possible).
	residual []Expr

	// buildLeft hashes the left (smaller) side instead of the right;
	// output order is preserved by buffering matches per left row.
	buildLeft bool

	// inlj replaces building a hash over the whole right side with
	// batched index probes: left rows arrive in batches, their keys
	// drive LookupMany (or GetEach when inljPK) against inljCol, and
	// only the matching right rows are ever fetched. Chosen when the
	// probe side is far smaller than the build side.
	inlj       bool
	inljCol    string // right column probed through its index
	inljPK     bool   // probe the single-column primary key via GetEach
	inljKeyIdx int    // which leftKeys/rightKeys pair feeds the probe

	// band replaces a key-less nested loop with per-left-row range
	// probes: the ON clause holds "right.col BETWEEN lo AND hi" where
	// both bounds compute from the left row alone and the right column
	// carries an ordered index. The probed conjunct leaves residual —
	// the index range enforces it.
	band           bool
	bandCol        string  // right column probed through its ordered index
	bandIdx        int     // bandCol's position within the right row
	bandLo, bandHi Expr    // bound against the left rowset at plan time
	bandText       string  // the original conjunct, for Explain
	estLeft        float64 // estimated left-input rows when planned
}

// selectPlan is the physical plan for one SELECT: access paths, join
// algorithms in written order, and residual predicates, feeding the
// cursor pipeline in cursor.go and the projection/aggregation stages in
// exec.go.
type selectPlan struct {
	scan  *scanNode
	joins []*joinNode
	where []Expr     // post-join conjuncts that could not be pushed
	cols  []colRef   // column layout (projection binds here)
	deps  []tableDep // tables and epochs the plan was built against

	orderElide bool   // pipeline already emits ORDER BY's order; skip the sort
	orderText  string // the elided ORDER BY key, for Explain
	batch      int    // executor slab size (rows per NextBatch), for Explain
}

// estOut is the planner's guess at the pipeline's output cardinality,
// used to presize the materialization buffer. It follows the DRIVER
// scan's estimate alone: joins that enlarge the output merely cost a
// few pointer-slice regrows, while summing or maxing over join inputs
// would overallocate kilobytes on every selective probe plan (an INLJ
// reads a handful of driver rows against a huge probe table). Capped
// so a bad estimate wastes at most one modest slab.
func (p *selectPlan) estOut() int {
	const cap = 8192
	if p.scan.est > cap {
		return cap
	}
	return int(p.scan.est)
}

func (s *scanNode) describe() string {
	name := s.ref.Name
	if s.ref.Alias != "" {
		name += " AS " + s.ref.Alias
	}
	var b strings.Builder
	switch s.access {
	case accessPK:
		fmt.Fprintf(&b, "pk lookup %s (%s = %s)", name, s.probeCol, keyList(s.probeKeys))
	case accessIndex:
		fmt.Fprintf(&b, "index probe %s (%s = %s)", name, s.probeCol, keyList(s.probeKeys))
	case accessRange:
		verb := "range scan"
		detail := s.rangeText()
		if s.rangeLo == nil && s.rangeHi == nil {
			// An unbounded walk of the ordered index, adopted for its key
			// order (ORDER BY elision) rather than its bounds.
			verb = "ordered scan"
			detail = s.rangeCol
		}
		if s.rangeDesc {
			verb += " desc"
		}
		fmt.Fprintf(&b, "%s %s (%s)", verb, name, detail)
	default:
		fmt.Fprintf(&b, "scan %s", name)
	}
	if len(s.filter) > 0 {
		fmt.Fprintf(&b, " filter %s", exprList(s.filter))
	}
	fmt.Fprintf(&b, " ~%d of %d rows", int(s.est), s.tableRows)
	return b.String()
}

// rangeText renders the bounds of a range access, e.g. "Year >= 2008"
// or "Rating > 2 AND Rating <= 4".
func (s *scanNode) rangeText() string {
	var parts []string
	if s.rangeLo != nil {
		op := ">"
		if s.loInc {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", s.rangeCol, op, s.rangeLo.String()))
	}
	if s.rangeHi != nil {
		op := "<"
		if s.hiInc {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", s.rangeCol, op, s.rangeHi.String()))
	}
	return strings.Join(parts, " AND ")
}

func exprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, " AND ")
}

func keyList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// String renders the plan as an indented tree — the output of Explain.
func (p *selectPlan) String() string { return p.render(nil) }

// render walks the plan tree once for both Explain and EXPLAIN
// ANALYZE: annot, when non-nil, appends per-node actuals after each
// operator line, keyed by the node pointer (*joinNode, *scanNode) or
// whereKey for the post-join filter. Sharing the walk guarantees the
// annotated tree has exactly the shape Explain prints.
func (p *selectPlan) render(annot func(key any) string) string {
	note := func(key any) string {
		if annot == nil {
			return ""
		}
		return annot(key)
	}
	var b strings.Builder
	depth := 0
	for i := len(p.joins) - 1; i >= 0; i-- {
		j := p.joins[i]
		indent := strings.Repeat("  ", depth)
		algo := "nested loop"
		if j.inlj {
			kind := "index"
			if j.inljPK {
				kind = "pk"
			}
			algo = fmt.Sprintf("index nested loop on %s, probe=%s(%s)", strings.Join(j.keyText, " AND "), kind, j.inljCol)
		} else if j.band {
			algo = fmt.Sprintf("index nested loop on %s, probe=range(%s)", j.bandText, j.bandCol)
		} else if len(j.leftKeys) > 0 {
			side := "right"
			if j.buildLeft {
				side = "left"
			}
			algo = fmt.Sprintf("hash join on %s, build=%s", strings.Join(j.keyText, " AND "), side)
		}
		fmt.Fprintf(&b, "%s%s (INNER)", indent, algo)
		if len(j.residual) > 0 {
			fmt.Fprintf(&b, " residual %s", exprList(j.residual))
		}
		b.WriteString(note(j))
		b.WriteByte('\n')
		depth++
		fmt.Fprintf(&b, "%s%s%s\n", strings.Repeat("  ", depth), j.scan.describe(), note(j.scan))
	}
	fmt.Fprintf(&b, "%s%s%s\n", strings.Repeat("  ", depth), p.scan.describe(), note(p.scan))
	if len(p.where) > 0 {
		fmt.Fprintf(&b, "where %s%s\n", exprList(p.where), note(whereKey))
	}
	if p.orderElide {
		fmt.Fprintf(&b, "order by %s elided (range scan emits sort order)\n", p.orderText)
	}
	if p.batch > 0 {
		fmt.Fprintf(&b, "vectorized batch=%d\n", p.batch)
	}
	return b.String()
}
