package core_test

import (
	"reflect"
	"strings"
	"testing"

	"courserank/internal/comments"
	"courserank/internal/core"
	"courserank/internal/flexrecs"
	"courserank/internal/matview"
	"courserank/internal/relation"
)

// extendViews are the nestings the rewriter shares between templates,
// by view-name prefix, each with the ε its view builds.
var extendViews = map[string]func() *flexrecs.Step{
	"flex/ratings-extend@": func() *flexrecs.Step {
		return flexrecs.Rel("Comments").Project("SuID", "CourseID", "Rating").
			Extend("SuID", "CourseID", "Rating", "Ratings")
	},
	"flex/grades-extend@": func() *flexrecs.Step {
		return flexrecs.Rel("EnrollmentPoints").Extend("SuID", "CourseID", "Points", "Grades")
	},
}

// extendOracle compares every maintained ε view with a fresh build after
// each step of a script and accounts for every full build.
type extendOracle struct {
	t       *testing.T
	s       *core.Site
	fresh   *flexrecs.Engine // registry-less, on the base tables: what Build runs
	views   map[string]*matview.View
	rebuilt map[string]uint64 // full builds the script has named so far, per view
}

func newExtendOracle(t *testing.T, s *core.Site) *extendOracle {
	t.Helper()
	o := &extendOracle{t: t, s: s, fresh: flexrecs.NewEngineOver(s.SQL),
		views: map[string]*matview.View{}, rebuilt: map[string]uint64{}}
	for _, v := range s.Views.Views() {
		for prefix := range extendViews {
			if strings.HasPrefix(v.Name(), prefix) {
				if !v.Maintained() {
					t.Fatalf("view %s is not maintained", v.Name())
				}
				o.views[prefix] = v
			}
		}
	}
	if len(o.views) != len(extendViews) {
		t.Fatalf("extend views %v, want one per prefix of %v", viewNamesOf(s), extendViews)
	}
	return o
}

// check reads every ε view and requires exactly what a fresh build
// returns now. The views named in rebuild are due one more full build;
// every other view must have been served without one.
func (o *extendOracle) check(step string, rebuild ...string) {
	o.t.Helper()
	for _, prefix := range rebuild {
		o.rebuilt[prefix]++
	}
	for prefix, v := range o.views {
		val, serve, err := v.Get()
		if err != nil {
			o.t.Fatalf("%s: %s: %v", step, prefix, err)
		}
		want, err := o.fresh.Run(extendViews[prefix]())
		if err != nil {
			o.t.Fatalf("%s: %s: %v", step, prefix, err)
		}
		if got := val.(*flexrecs.Relation); !reflect.DeepEqual(got, want) {
			o.t.Fatalf("%s: %s differs from a fresh build (served %v)\n got %v\nwant %v", step, prefix, serve.Kind, got.Rows, want.Rows)
		}
		if st := v.Stats(); st.Refreshes != o.rebuilt[prefix] || st.Errors != 0 {
			o.t.Fatalf("%s: %s made %d full builds, want %d: %+v", step, prefix, st.Refreshes, o.rebuilt[prefix], st)
		}
	}
}

// twinDraws keeps up to per draws of every template, each checked against
// the registry-less twin only.
func twinDraws(draws []draw, per int) []draw {
	kept := map[string]int{}
	var out []draw
	for i, d := range draws {
		if kept[d.strategy] < per && i%3 == 0 {
			kept[d.strategy]++
			d.forced = false
			out = append(out, d)
		}
	}
	return out
}

// TestMaintainedExtendEqualsFreshBuild is the ε views' maintenance
// oracle, on the mono and the 3-shard site: after every step of a
// scripted write sequence each flex/*-extend view is exactly what its
// build returns now — float bits, group order and vanished groups
// included — every template answers what the registry-less twin
// computes, and a full build happens only at a logged gap.
func TestMaintainedExtendEqualsFreshBuild(t *testing.T) {
	mono, sharded, man := shardedPair(t)
	for _, site := range []struct {
		name string
		s    *core.Site
	}{{"mono", mono}, {"sharded", sharded}} {
		t.Run(site.name, func(t *testing.T) {
			s := site.s
			draws := twinDraws(rewriteDraws(t, s, man), 12)
			checkDraws(t, "cold", s, draws)
			o := newExtendOracle(t, s)
			o.check("cold build", "flex/ratings-extend@", "flex/grades-extend@")

			tbl := s.DB.MustTable("Comments")
			sch := tbl.Schema()
			colID, colSu, colRating := sch.MustIndex("CommentID"), sch.MustIndex("SuID"), sch.MustIndex("Rating")
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			step := func(name string, rebuild ...string) {
				t.Helper()
				o.check(name, rebuild...)
				checkDraws(t, name, s, draws)
			}
			set := func(id int64, col int, val relation.Value) {
				t.Helper()
				must(tbl.UpdateByKey([]relation.Value{id}, func(r relation.Row) relation.Row { r[col] = val; return r }))
			}
			var silent int64 // a user with no comments: a group the views do not hold
			for _, st := range rewriteStudents(t, s, man) {
				if st != man.SampleStudent && st != man.TwinStudent && st != 9_999_999 {
					if len(tbl.Lookup("SuID", st)) == 0 {
						silent = st
					}
				}
			}
			if silent == 0 {
				t.Fatal("no silent student among the draws")
			}
			intro, os := man.Planted["intro-programming"], man.Planted["operating-systems"]

			// A new group, inserted between two others.
			id, err := s.Comments.Add(comments.Comment{SuID: 9_999_999, CourseID: intro, Year: 2009, Term: "Spring", Text: "scripted", Rating: 4})
			must(err)
			step("comment insert starts a group")
			set(id, colRating, 2.5)
			step("rating update")
			// The group loses its one row and another is born.
			set(id, colSu, silent)
			step("comment moved to another student")

			// The slot a delete frees is reused by the next insert, for a
			// student whose group appears with it.
			var slot int
			var gone int64
			tbl.Scan(func(sl int, r relation.Row) bool {
				if r[colSu] == man.SampleStudent {
					slot, gone = sl, r[colID].(int64)
					return false
				}
				return true
			})
			if n, err := tbl.DeleteWhere(func(r relation.Row) bool { return r[colID] == gone }); err != nil || n != 1 {
				t.Fatalf("delete of comment %d removed %d rows: %v", gone, n, err)
			}
			step("delete")
			reused, err := tbl.Insert(relation.Row{nil, int64(9_999_998), os, int64(2009), "Spring", "reuses a slot", 3.0, nil})
			must(err)
			if reused != slot {
				t.Fatalf("the insert took slot %d, want the freed slot %d", reused, slot)
			}
			step("insert into the freed slot")

			points := s.DB.MustTable("EnrollmentPoints")
			_, err = points.Insert(relation.Row{man.SampleStudent, os, 3.3})
			must(err)
			step("grade points insert")

			tx := s.DB.Begin()
			_, err = tx.Insert(tbl, relation.Row{nil, man.TwinStudent, os, int64(2009), "Spring", "rolled back", 1.0, nil})
			must(err)
			must(tx.Rollback())
			step("rolled-back transaction")

			// A row inserted and deleted by one transaction commits born
			// dead: the version moves with nothing delivered. The views are
			// right as they stand, and the next delivery finds the gap.
			tx = s.DB.Begin()
			row, err := tx.Insert(tbl, relation.Row{nil, man.TwinStudent, os, int64(2009), "Spring", "never seen", 1.0, nil})
			must(err)
			if n, err := tx.DeleteWhere(tbl, func(r relation.Row) bool { return r[colID] == row[colID] }); err != nil || n != 1 {
				t.Fatalf("transaction deleted %d of its own rows: %v", n, err)
			}
			must(tx.Commit())
			step("born-dead insert")
			_, err = s.Comments.Add(comments.Comment{SuID: man.TwinStudent, CourseID: os, Year: 2009, Term: "Spring", Text: "after the gap", Rating: 5})
			must(err)
			step("first delivery after the gap", "flex/ratings-extend@")
			_, err = s.Comments.Add(comments.Comment{SuID: man.TwinStudent, CourseID: intro, Year: 2009, Term: "Spring", Text: "maintained again", Rating: 2})
			must(err)
			step("maintained again after the rebuild")

			// A NULL rating in a hot group adds nothing to its Vector, and a
			// group of NULL ratings alone is no group at all.
			_, err = s.Comments.Add(comments.Comment{SuID: man.SampleStudent, CourseID: intro, Year: 2009, Term: "Spring", Text: "unrated"})
			must(err)
			step("unrated comment in the hot group")
			_, err = s.Comments.Add(comments.Comment{SuID: 9_999_997, CourseID: intro, Year: 2009, Term: "Spring", Text: "unrated alone"})
			must(err)
			step("a group of one unrated comment")
			// The moved comment is the silent student's only row: deleting it
			// takes the group out of the nesting.
			if n, err := tbl.DeleteWhere(func(r relation.Row) bool { return r[colID] == id }); err != nil || n != 1 {
				t.Fatalf("delete of comment %d removed %d rows: %v", id, n, err)
			}
			step("delete of a group's last row")

			for prefix, v := range o.views {
				if st := v.Stats(); st.Patches == 0 {
					t.Errorf("%s was never patched: %+v", prefix, st)
				}
			}
		})
	}
}
