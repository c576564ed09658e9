// Package experiments regenerates every table and figure of the paper
// against a synthetic deployment: Table 1, Figures 1–5, the §2 scale
// statistics, the §2.2 grade-validity claim and incentive scheme, plus
// the ablations (A1, A2, ...). Each experiment returns a printable
// report; cmd/crbench prints them and the root benchmarks time them.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/community"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/qa"
	"courserank/internal/render"
	"courserank/internal/search"
)

// Runner holds one populated site and its generation manifest.
type Runner struct {
	Site *core.Site
	Man  *datagen.Manifest
	Cfg  datagen.Config
}

// NewRunner generates a deployment at the given scale.
func NewRunner(cfg datagen.Config) (*Runner, error) {
	site, err := core.NewSite()
	if err != nil {
		return nil, err
	}
	man, err := datagen.Populate(site, cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{Site: site, Man: man, Cfg: cfg}, nil
}

func header(title string) string {
	bar := strings.Repeat("═", 72)
	return fmt.Sprintf("%s\n%s\n%s\n", bar, title, bar)
}

// Table1 regenerates the paper's comparison table, with the CourseRank
// column verified against the live instance.
func (r *Runner) Table1() string {
	rows := r.Site.Table1()
	cells := make([][]string, len(rows))
	verified := 0
	for i, row := range rows {
		mark := " "
		if row.Verified {
			mark = "✓"
			verified++
		}
		cells[i] = []string{row.Dimension, row.DB, row.SocialSite, row.CourseRank, mark}
	}
	var b strings.Builder
	b.WriteString(header("Table 1 — DB vs Social Sites vs CourseRank (Web column elided for width)"))
	b.WriteString(render.Table([]string{"dimension", "DB", "Social Sites", "CourseRank", "live"}, cells))
	fmt.Fprintf(&b, "\n%d/%d CourseRank claims verified against this running instance.\n", verified, len(rows))
	return b.String()
}

// Figure1 renders the course descriptor page and the multi-year
// planner for the sample student.
func (r *Runner) Figure1() string {
	var b strings.Builder
	b.WriteString(header("Figure 1 — course descriptor page (left) and course planner (right)"))
	courseID := r.Man.Planted["intro-programming"]
	page, err := render.CoursePage(r.Site, courseID)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	b.WriteString(page)
	b.WriteString("\n")
	b.WriteString(render.Plan(r.Site, r.Man.SampleStudent))
	return b.String()
}

// Figure2 lists the architecture components with live health checks.
func (r *Runner) Figure2() string {
	var b strings.Builder
	b.WriteString(header("Figure 2 — CourseRank system components"))
	rows := make([][]string, 0, 16)
	for _, c := range r.Site.Components() {
		ok := "down"
		if c.OK {
			ok = "up"
		}
		rows = append(rows, []string{c.Name, c.Role, ok})
	}
	b.WriteString(render.Table([]string{"component", "role", "status"}, rows))
	return b.String()
}

// Figure3 searches for "American": the paper reports 1160 matching
// courses and a cloud with terms like "Latin American", "Indians",
// "politics".
func (r *Runner) Figure3() (string, *search.Results, error) {
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		return "", nil, err
	}
	cl, err := r.Site.CourseCloud(res, 30)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString(header(`Figure 3 — searching for "American"`))
	b.WriteString(render.SearchResults(r.Site, res, 8))
	fmt.Fprintf(&b, "\npaper: 1160 of 18605 courses (%.2f%%) · here: %d of %d (%.2f%%)\n",
		100*1160.0/18605.0, res.Total(), r.Site.Scale().Courses,
		100*float64(res.Total())/float64(r.Site.Scale().Courses))
	b.WriteString("\nCourse Cloud:\n")
	b.WriteString(render.Cloud(cl))
	b.WriteString("\n")
	return b.String(), res, nil
}

// Figure4 refines Figure 3's results by the clicked term "African
// American": the paper reports 123 matches and an updated cloud.
func (r *Runner) Figure4() (string, error) {
	_, res, err := r.Figure3()
	if err != nil {
		return "", err
	}
	ref, err := r.Site.RefineSearch(res, "african american")
	if err != nil {
		return "", err
	}
	cl, err := r.Site.CourseCloud(ref, 30)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header(`Figure 4 — refining to "African American"`))
	b.WriteString(render.SearchResults(r.Site, ref, 8))
	fmt.Fprintf(&b, "\npaper: narrowed 1160 → 123 (%.1f%%) · here: %d → %d (%.1f%%)\n",
		100*123.0/1160.0, res.Total(), ref.Total(), 100*float64(ref.Total())/float64(res.Total()))
	b.WriteString("\nUpdated Course Cloud:\n")
	b.WriteString(render.Cloud(cl))
	b.WriteString("\n")
	return b.String(), nil
}

// Figure5a runs the related-course workflow (σYear ▷Jaccard[Title]).
func (r *Runner) Figure5a() (string, error) {
	year := r.Cfg.Years[len(r.Cfg.Years)-1]
	tpl, _ := r.Site.Strategies.Get("related-courses")
	wf, err := tpl.Build(map[string]any{"title": "Introduction to Programming", "year": year, "k": 6})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("Figure 5(a) — related-course workflow"))
	b.WriteString("Plan:\n" + r.Site.Flex.Explain(wf) + "\n")
	res, err := r.Site.Flex.Run(wf)
	if err != nil {
		return "", err
	}
	ti, si := res.MustCol("Title"), res.MustCol("Score")
	rows := make([][]string, res.Len())
	for i := range res.Rows {
		rows[i] = []string{fmt.Sprint(res.Rows[i][ti]), fmt.Sprintf("%.3f", res.Rows[i][si])}
	}
	b.WriteString(render.Table([]string{"related course (by title Jaccard)", "score"}, rows))
	return b.String(), nil
}

// Figure5b runs the collaborative-filtering workflow (extend ε +
// inv_Euclidean neighbors + Identify/W_Avg course ranking).
func (r *Runner) Figure5b() (string, error) {
	tpl, _ := r.Site.Strategies.Get("cf-courses")
	wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 8, "neighbors": 15})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 5(b) — collaborative filtering workflow (student %d)", r.Man.SampleStudent)))
	b.WriteString("Plan:\n" + r.Site.Flex.Explain(wf) + "\n")
	res, err := r.Site.Flex.Run(wf)
	if err != nil {
		return "", err
	}
	ci, si := res.MustCol("CourseID"), res.MustCol("Score")
	rows := make([][]string, 0, res.Len())
	for i := range res.Rows {
		c, ok := r.Site.Catalog.Course(res.Rows[i][ci].(int64))
		if !ok {
			continue
		}
		rows = append(rows, []string{c.Code(), c.Title, fmt.Sprintf("%.2f", res.Rows[i][si])})
	}
	b.WriteString(render.Table([]string{"course", "title", "predicted rating"}, rows))
	return b.String(), nil
}

// ScaleStats compares this deployment's §2 statistics with the paper's.
func (r *Runner) ScaleStats() string {
	s := r.Site.Scale()
	var b strings.Builder
	b.WriteString(header("§2 deployment statistics — paper vs this instance"))
	rows := [][]string{
		{"courses", "18,605", fmt.Sprint(s.Courses)},
		{"comments", "134,000", fmt.Sprint(s.Comments)},
		{"ratings", "50,300", fmt.Sprint(s.Ratings)},
		{"registered users", "> 9,000", fmt.Sprint(s.Users)},
		{"undergraduates", "~ 6,500", fmt.Sprint(s.Undergrads)},
		{"university students", "~ 14,000", fmt.Sprint(s.DirectoryStudents)},
		{"departments", "(not stated)", fmt.Sprint(s.Departments)},
		{"forum questions", "(low traffic)", fmt.Sprint(s.Questions)},
	}
	b.WriteString(render.Table([]string{"metric", "paper", "here"}, rows))
	return b.String()
}

// GradeDivergence reproduces the §2.2 claim: official Engineering
// distributions are very close to self-reported ones. It reports the
// mean total-variation distance per school.
func (r *Runner) GradeDivergence() string {
	type agg struct {
		sum float64
		n   int
	}
	// Compare only courses with enough self-reports for the empirical
	// distribution to be meaningful — small classes are sampling noise
	// (and their charts are suppressed in the UI anyway).
	const minSelfReports = 30
	bySchool := map[string]*agg{}
	for _, d := range r.Site.Catalog.Departments() {
		for _, c := range r.Site.Catalog.CoursesByDept(d.ID) {
			if r.Site.Stats.SelfReportedDistribution(c.ID).Total < minSelfReports {
				continue
			}
			tv, ok := r.Site.Stats.Divergence(c.ID)
			if !ok {
				continue
			}
			a := bySchool[d.School]
			if a == nil {
				a = &agg{}
				bySchool[d.School] = a
			}
			a.sum += tv
			a.n++
		}
	}
	var b strings.Builder
	b.WriteString(header("§2.2 — official vs self-reported grade distributions (TV distance)"))
	schools := make([]string, 0, len(bySchool))
	for s := range bySchool {
		schools = append(schools, s)
	}
	sort.Strings(schools)
	rows := make([][]string, 0, len(schools))
	for _, s := range schools {
		a := bySchool[s]
		disclosed := "suppressed"
		if r.Site.Stats.Discloses(s) {
			disclosed = "disclosed"
		}
		rows = append(rows, []string{s, fmt.Sprintf("%.3f", a.sum/float64(a.n)), fmt.Sprint(a.n), disclosed})
	}
	b.WriteString(render.Table([]string{"school", "mean TV distance", "courses compared", "official policy"}, rows))
	b.WriteString("\npaper: \"the official Engineering grade distributions seem to be very close\n" +
		"to the corresponding self-reported ones\" — small distances reproduce it;\n" +
		"only Engineering's official charts are shown (others suppressed).\n")
	return b.String()
}

// Incentives exercises the §2.2 point scheme end to end and verifies
// the ledger arithmetic.
func (r *Runner) Incentives() (string, error) {
	svc := r.Site.Community
	asker, answerer, voter := "stu00001", "stu00002", "stu00003"
	ua, _ := svc.UserByUsername(asker)
	ub, _ := svc.UserByUsername(answerer)
	uc, _ := svc.UserByUsername(voter)
	base := map[int64]int{ua.ID: svc.Points(ua.ID), ub.ID: svc.Points(ub.ID), uc.ID: svc.Points(uc.ID)}

	// Two login days for the asker, one each for the others.
	for _, day := range []int64{101, 102} {
		if _, err := svc.Login(asker, day); err != nil {
			return "", err
		}
	}
	if _, err := svc.Login(answerer, 101); err != nil {
		return "", err
	}
	if _, err := svc.Login(voter, 101); err != nil {
		return "", err
	}
	qid, _, err := r.Site.QA.Ask(qa.Question{SuID: ua.ID, Title: "Which databases course first?", Text: "CS145 or CS245?", DepID: "CS"})
	if err != nil {
		return "", err
	}
	aid, err := r.Site.QA.Answer(qa.Answer{QID: qid, SuID: ub.ID, Text: "CS145; 245 assumes it."})
	if err != nil {
		return "", err
	}
	if err := r.Site.QA.Vote(aid, uc.ID); err != nil {
		return "", err
	}
	if err := r.Site.QA.MarkBest(qid, aid, ua.ID); err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString(header("§2.2 — incentive scheme (Yahoo! Answers scoring)"))
	rows := [][]string{
		{"best answer", fmt.Sprint(community.PointsBestAnswer), "10"},
		{"daily login", fmt.Sprint(community.PointsDailyLogin), "1"},
		{"vote that became best", fmt.Sprint(community.PointsVoteBecameBest), "1"},
	}
	b.WriteString(render.Table([]string{"action", "points here", "paper (Y! Answers)"}, rows))
	checks := []struct {
		name string
		id   int64
		want int
	}{
		{"asker (2 logins)", ua.ID, 2},
		{"answerer (1 login + best answer)", ub.ID, 1 + community.PointsBestAnswer},
		{"voter (1 login + winning vote)", uc.ID, 1 + community.PointsVoteBecameBest},
	}
	ok := true
	for _, c := range checks {
		got := svc.Points(c.id) - base[c.id]
		mark := "✓"
		if got != c.want {
			mark = "✗"
			ok = false
		}
		fmt.Fprintf(&b, "%-36s earned %2d (expected %2d) %s\n", c.name, got, c.want, mark)
	}
	fmt.Fprintf(&b, "ledger arithmetic verified: %v\n", ok)
	b.WriteString("\nLeaderboard (top 5):\n")
	for i, e := range svc.Leaderboard(5) {
		fmt.Fprintf(&b, "%2d. %-24s %4d points\n", i+1, e.User.Name, e.Points)
	}
	return b.String(), nil
}

// Evolution reports the §1 "how do such systems evolve over time?"
// metrics: activity per quarter, the largest rating drifts, contribution
// concentration, and catalog coverage.
func (r *Runner) Evolution() string {
	var b strings.Builder
	b.WriteString(header("§1 — system evolution: activity, drift, concentration, coverage"))
	rows := [][]string{}
	for _, q := range r.Site.Analytics.ActivityByQuarter() {
		rows = append(rows, []string{fmt.Sprintf("%s %d", q.Term, q.Year), fmt.Sprint(q.Comments), fmt.Sprint(q.Raters)})
	}
	b.WriteString(render.Table([]string{"quarter", "comments", "distinct commenters"}, rows))

	drifts := r.Site.Analytics.RatingDriftByCourse(3)
	b.WriteString("\nLargest sentiment drifts (≥3 rated comments per year):\n")
	n := len(drifts)
	if n > 5 {
		n = 5
	}
	driftRows := [][]string{}
	for _, d := range drifts[:n] {
		c, ok := r.Site.Catalog.Course(d.CourseID)
		if !ok {
			continue
		}
		driftRows = append(driftRows, []string{
			c.Code(), fmt.Sprintf("%.2f (%d)", d.FirstAvg, d.FirstYear),
			fmt.Sprintf("%.2f (%d)", d.LastAvg, d.LastYear), fmt.Sprintf("%+.2f", d.Delta),
		})
	}
	b.WriteString(render.Table([]string{"course", "first year avg", "last year avg", "drift"}, driftRows))

	con := r.Site.Analytics.ContributionConcentration()
	cov := r.Site.Analytics.CatalogCoverage()
	fmt.Fprintf(&b, "\ncontributors: %d · top-10%% share of comments: %.0f%% · Gini %.2f\n",
		con.Contributors, 100*con.Top10Share, con.Gini)
	fmt.Fprintf(&b, "catalog coverage: %.0f%% of %d courses have comments, %.0f%% have ratings\n",
		100*cov.CommentShare, cov.Courses, 100*cov.RatingShare)
	return b.String()
}

// AblationFlexVsHardcoded compares the FlexRecs CF workflow with the
// hard-coded recommender on identical inputs (A1): rankings must agree;
// the report shows both top lists.
func (r *Runner) AblationFlexVsHardcoded() (string, error) {
	hard := r.Site.Baseline.UserUserCF(r.Man.SampleStudent, 15, 8, false)
	tpl, _ := r.Site.Strategies.Get("cf-courses")
	wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 8, "neighbors": 15})
	if err != nil {
		return "", err
	}
	res, err := r.Site.Flex.Run(wf)
	if err != nil {
		return "", err
	}
	ci, si := res.MustCol("CourseID"), res.MustCol("Score")
	var b strings.Builder
	b.WriteString(header("A1 — declarative FlexRecs workflow vs hard-coded recommender"))
	rows := make([][]string, 0, 8)
	agree := true
	for i := 0; i < len(hard) && i < res.Len(); i++ {
		fid := res.Rows[i][ci].(int64)
		fsc := res.Rows[i][si].(float64)
		match := "≈"
		if diff := fsc - hard[i].Score; diff > 1e-6 || diff < -1e-6 {
			match = "≠"
			agree = false
		}
		rows = append(rows, []string{
			fmt.Sprintf("#%d", i+1),
			fmt.Sprintf("course %d (%.3f)", hard[i].ID, hard[i].Score),
			fmt.Sprintf("course %d (%.3f)", fid, fsc),
			match,
		})
	}
	b.WriteString(render.Table([]string{"rank", "hard-coded", "FlexRecs workflow", "score"}, rows))
	fmt.Fprintf(&b, "\nscore agreement at every rank: %v — the declarative layer costs\n"+
		"latency (see BenchmarkA1*), not quality.\n", agree)
	return b.String(), nil
}

// AblationCloudCost measures dynamic cloud computation against result
// set size (A2) — §3.1 asks "how can we dynamically and efficiently
// compute their data cloud?".
func (r *Runner) AblationCloudCost() (string, error) {
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		return "", err
	}
	ix, err := r.Site.SearchIndex()
	if err != nil {
		return "", err
	}
	ids := res.IDs()
	var b strings.Builder
	b.WriteString(header("A2 — cloud computation vs result-set size"))
	rows := [][]string{}
	for _, n := range []int{10, 50, 100, len(ids)} {
		if n > len(ids) {
			n = len(ids)
		}
		c := cloud.Compute(ix.Text(), ids[:n], cloud.Options{MaxTerms: 30, Exclude: []string{"american"}})
		rows = append(rows, []string{fmt.Sprint(n), fmt.Sprint(len(c.Terms))})
	}
	b.WriteString(render.Table([]string{"result docs", "cloud terms"}, rows))
	b.WriteString("\nlatency per size is measured by BenchmarkA2CloudVsResultSize.\n")
	return b.String(), nil
}

// AblationEntitySearch contrasts entity search spanning relations with
// title-only search (A3): recall of themed courses.
func (r *Runner) AblationEntitySearch() (string, error) {
	full, err := r.Site.SearchCourses("american")
	if err != nil {
		return "", err
	}
	// Title-only index over the same catalog.
	tb, err := search.NewBuilder(search.EntityDef{Name: "title-only",
		Fields: []search.FieldSpec{{Name: "title", Weight: 1}}})
	if err != nil {
		return "", err
	}
	var berr error
	r.Site.Catalog.EachCourse(func(c catalog.Course) bool {
		berr = tb.Append(c.ID, "title", c.Title)
		return berr == nil
	})
	if berr != nil {
		return "", berr
	}
	titleIx, err := tb.Build()
	if err != nil {
		return "", err
	}
	titleOnly := titleIx.Search("american")
	var b strings.Builder
	b.WriteString(header("A3 — entity search spanning relations vs title-only (query: american)"))
	rows := [][]string{
		{"title-only tuples", fmt.Sprint(titleOnly.Total())},
		{"full entity (title+description+comments+instructors+dept)", fmt.Sprint(full.Total())},
	}
	b.WriteString(render.Table([]string{"index", "matches"}, rows))
	fmt.Fprintf(&b, "\nspanning relations finds %.1f× more of the themed courses — the\n"+
		"serendipity §3.1 motivates (the Greek-science-from-classics example).\n",
		float64(full.Total())/float64(max(1, titleOnly.Total())))
	return b.String(), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
