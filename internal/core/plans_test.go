package core_test

// The product's plans: every join a statement the site sends is planned
// as is one of the join algorithms sqlmini keeps. sqlmini plans INNER
// joins in written order; this suite is what proves that covers the
// product.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"courserank/internal/core"
	"courserank/internal/datagen"
)

// keptJoins are the join algorithms the product plans, by the Explain
// line sqlmini prints for each: the head the line starts with and a
// detail it carries.
var keptJoins = []struct{ head, detail, kind string }{
	{"hash join on ", ", build=right (INNER)", "hash join build=right"},
	{"hash join on ", ", build=left (INNER)", "hash join build=left"},
	{"index nested loop on ", ", probe=pk(", "index nested loop probe=pk"},
	{"index nested loop on ", ", probe=index(", "index nested loop probe=index"},
	{"index nested loop on ", ", probe=range(", "band join probe=range"},
}

// selectLiterals returns every string literal in the Go file at path
// that holds a SELECT, so the suite follows the source's statements as
// they change instead of a copy of them.
func selectLiterals(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "SELECT ") {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// checkPlan fails the test for any join line of explain whose algorithm
// sqlmini does not keep, and counts the kept ones in seen. flex marks a
// FlexRecs Explain, whose plan lines sit after "| " beneath each
// compiled statement; any other explain is all plan, below the route
// lines a cluster prints.
func checkPlan(t *testing.T, what, explain string, flex bool, seen map[string]int) {
	t.Helper()
	if strings.Contains(explain, "merge join") || strings.Contains(explain, "join order:") || strings.Contains(explain, "!error") {
		t.Errorf("%s plans a merge join or a join reorder, or fails to compile:\n%s", what, explain)
	}
	for _, line := range strings.Split(explain, "\n") {
		line = strings.TrimLeft(line, " ")
		if flex {
			if !strings.HasPrefix(line, "| ") {
				continue
			}
			line = strings.TrimLeft(line[2:], " ")
		}
		if !strings.Contains(line, "(INNER)") && !strings.Contains(line, "(LEFT)") {
			continue
		}
		kind := ""
		for _, k := range keptJoins {
			if strings.HasPrefix(line, k.head) && strings.Contains(line, k.detail) {
				kind = k.kind
				break
			}
		}
		if kind == "" {
			t.Errorf("%s plans a join sqlmini does not keep: %q", what, line)
			continue
		}
		seen[kind]++
	}
}

// planDraws is the parameter grid each registered template is planned
// over: the personalizing student (a dense rater and an unknown id),
// the year and since scopes, contemporary-courses' band, top-rated's
// threshold, every department, and several k.
func planDraws(t *testing.T, s *core.Site, man *datagen.Manifest) map[string][]map[string]any {
	t.Helper()
	students := []int64{man.SampleStudent, 9_999_999}
	var titles []string
	var courses []int64
	for _, key := range []string{"intro-programming", "operating-systems"} {
		id := man.Planted[key]
		c, ok := s.Catalog.Course(id)
		if !ok {
			t.Fatalf("planted course %s missing", key)
		}
		titles, courses = append(titles, c.Title), append(courses, id)
	}
	draws := map[string][]map[string]any{}
	add := func(name string, params map[string]any) { draws[name] = append(draws[name], params) }
	for _, k := range []int{1, 10, 1000} {
		for _, st := range students {
			add("rated-courses", map[string]any{"student": st, "k": k})
			add("grade-peers", map[string]any{"student": st, "k": k, "neighbors": 20})
			add("cf-courses", map[string]any{"student": st, "k": k, "neighbors": 20})
			add("cf-courses", map[string]any{"student": st, "k": k, "neighbors": 20, "year": int64(2008)})
			for _, title := range titles {
				add("hybrid", map[string]any{"student": st, "title": title, "k": k})
			}
		}
		for _, title := range titles {
			add("related-courses", map[string]any{"title": title, "k": k})
			for _, y := range []int64{2007, 2008} {
				add("related-courses", map[string]any{"title": title, "k": k, "year": y})
				add("related-courses", map[string]any{"title": title, "k": k, "since": y})
			}
		}
		for _, c := range courses {
			for _, band := range []int{0, 1, 3} {
				add("contemporary-courses", map[string]any{"course": c, "band": band, "k": k})
			}
		}
		for _, min := range []float64{1, 4, 5} {
			add("top-rated", map[string]any{"min": min, "k": k})
		}
		for _, d := range s.Catalog.Departments() {
			add("department-popular", map[string]any{"dep": d.ID, "k": k})
		}
	}
	return draws
}

// TestProductPlansUseKeptJoins plans every statement the product sends —
// each registered FlexRecs template over a parameter grid, the feed's
// build and patch, the baseline recommender's ratings read, and the
// statements bench/probes.go times — at Tiny and Small scale, on a
// monolithic site and on the same site split over two shards, and
// requires every join of every plan to be a hash join, an index nested
// loop or a band probe.
func TestProductPlansUseKeptJoins(t *testing.T) {
	probes := selectLiterals(t, "../../bench/probes.go")
	ratings := selectLiterals(t, "../recommend/recommend.go")
	if len(probes) < 7 || len(ratings) != 1 {
		t.Fatalf("found %d probe statements and %d ratings reads, want at least 7 and 1", len(probes), len(ratings))
	}
	statements := append([]string{core.FeedBuildSQL, core.FeedPatchSQL}, ratings...)
	for _, sql := range probes {
		// The plan-miss probe formats a fresh course id into its text.
		statements = append(statements, strings.ReplaceAll(sql, "%d", "1000001"))
	}

	seen := map[string]int{}
	for _, scale := range []struct {
		name string
		cfg  datagen.Config
	}{{"tiny", datagen.Tiny()}, {"small", datagen.Small()}} {
		s, err := core.NewSite()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		man, err := datagen.Populate(s, scale.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"mono", "2-shard"} {
			if mode == "2-shard" {
				if err := s.EnableSharding(2); err != nil {
					t.Fatal(err)
				}
			}
			where := scale.name + "/" + mode
			draws := planDraws(t, s, man)
			for _, tpl := range s.Strategies.List() {
				if len(draws[tpl.Name]) == 0 {
					t.Fatalf("template %s has no draws in the plan grid", tpl.Name)
				}
				for _, params := range draws[tpl.Name] {
					w, err := tpl.Build(params)
					if err != nil {
						t.Fatalf("%s: building %s %v: %v", where, tpl.Name, params, err)
					}
					checkPlan(t, where+" "+tpl.Name, s.Flex.Explain(w), true, seen)
				}
			}
			for _, sql := range statements {
				st, err := s.SQL.Prepare(sql)
				if err != nil {
					t.Fatalf("%s: prepare %q: %v", where, sql, err)
				}
				plan, err := st.Explain()
				if err != nil {
					t.Fatalf("%s: explain %q: %v", where, sql, err)
				}
				checkPlan(t, where+" "+sql, plan, false, seen)
				if s.Sharded != nil {
					plan, err := s.Sharded.Explain(sql)
					if err != nil {
						t.Fatalf("%s: cluster explain %q: %v", where, sql, err)
					}
					checkPlan(t, where+" cluster "+sql, plan, false, seen)
				}
			}
		}
	}
	// The sweep must reach the algorithms it vouches for.
	for _, kind := range []string{"hash join build=right", "hash join build=left", "index nested loop probe=pk", "band join probe=range"} {
		if seen[kind] == 0 {
			t.Errorf("no product plan used a %s: %v", kind, seen)
		}
	}
	t.Logf("join lines by algorithm: %v", seen)
}
