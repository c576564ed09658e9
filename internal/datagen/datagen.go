// Package datagen synthesizes a CourseRank deployment at configurable
// scale. The paper's live numbers (§2: 18,605 courses; 134,000 comments;
// 50,300 ratings; 9,000 of ~14,000 students, ~6,500 undergrads) are the
// PaperScale preset, and the Figure 3/4 searches are calibrated exactly:
// the fraction of courses carrying the "american" theme equals
// 1160/18605 of the catalog, and the "african american" sub-theme equals
// 123/1160 of those, so the published result counts reappear at any
// scale. Generation is deterministic for a given seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"courserank/internal/bookx"
	"courserank/internal/catalog"
	"courserank/internal/comments"
	"courserank/internal/community"
	"courserank/internal/core"
	"courserank/internal/planner"
	"courserank/internal/qa"
	"courserank/internal/relation"
	"courserank/internal/requirements"
)

// Config sizes a synthetic deployment.
type Config struct {
	Seed               int64
	Departments        int
	Courses            int
	DirectoryStudents  int
	RegisteredStudents int
	Undergrads         int // among registered students
	Faculty            int
	Staff              int
	Comments           int
	Ratings            int
	Years              []int64
	CoursesPerQuarter  int // per student per quarter (mean)
	QASeedPerDept      int
	StudentQuestions   int
	BookListings       int
}

// PaperScale is the deployment §2 of the paper reports.
func PaperScale() Config {
	return Config{
		Seed:               42,
		Departments:        40,
		Courses:            18605,
		DirectoryStudents:  14000,
		RegisteredStudents: 9000,
		Undergrads:         6500,
		Faculty:            1200,
		Staff:              80,
		Comments:           134000,
		Ratings:            50300,
		Years:              []int64{2006, 2007, 2008},
		CoursesPerQuarter:  2,
		QASeedPerDept:      2,
		StudentQuestions:   60,
		BookListings:       400,
	}
}

// Small is roughly a tenth of paper scale; integration tests and quick
// demos use it.
func Small() Config {
	return Config{
		Seed:               42,
		Departments:        24,
		Courses:            1861,
		DirectoryStudents:  1400,
		RegisteredStudents: 900,
		Undergrads:         650,
		Faculty:            120,
		Staff:              20,
		Comments:           13400,
		Ratings:            5030,
		Years:              []int64{2006, 2007, 2008},
		CoursesPerQuarter:  2,
		QASeedPerDept:      1,
		StudentQuestions:   20,
		BookListings:       60,
	}
}

// Tiny is the unit-test preset.
func Tiny() Config {
	return Config{
		Seed:               42,
		Departments:        10,
		Courses:            220,
		DirectoryStudents:  120,
		RegisteredStudents: 80,
		Undergrads:         60,
		Faculty:            20,
		Staff:              5,
		Comments:           900,
		Ratings:            400,
		Years:              []int64{2007, 2008},
		CoursesPerQuarter:  2,
		QASeedPerDept:      1,
		StudentQuestions:   6,
		BookListings:       12,
	}
}

// Fig3Fraction and Fig4Fraction are the published calibration ratios.
const (
	fig3Fraction = 1160.0 / 18605.0 // courses matching "american"
	fig4Fraction = 123.0 / 1160.0   // of those, matching "african american"
)

// Manifest reports what the generator planted, for experiments that
// need stable anchors.
type Manifest struct {
	// Planted maps anchor names to course ids: intro-programming,
	// programming-methodology, advanced-programming,
	// programming-abstractions, operating-systems, greek-science,
	// java-programming.
	Planted map[string]int64
	// SampleStudent is a registered student with a dense rating history
	// (the paper's "student 444" role).
	SampleStudent int64
	// TwinStudent rates almost identically to SampleStudent.
	TwinStudent int64
	// ThemedCourses and AfricanAmericanCourses are the calibrated theme
	// counts (the expected Figure 3/4 result sizes).
	ThemedCourses          int
	AfricanAmericanCourses int
	// Programs lists the requirement programs defined.
	Programs []string
}

type subTheme uint8

const (
	themeNone subTheme = iota
	themePlain
	themeAfrican
	themeLatin
	themeIndians
)

type generator struct {
	site *core.Site
	cfg  Config
	rng  *rand.Rand
	man  *Manifest

	deptIDs        []string
	deptKind       map[string]string
	themedDepts    []string
	courseIDs      []int64
	courseTheme    map[int64]subTheme
	courseDiff     map[int64]float64 // 0 = easy A course, 1 = brutal
	courseDept     map[int64]string
	instructors    map[string][]int64 // dept → instructor ids
	studentIDs     []int64
	staffIDs       []int64
	facultyIDs     []int64
	bookIDs        []int64
	reservedTitles map[string]bool
}

// Populate fills an empty Site with a synthetic deployment and builds
// the derived tables and the search index. It must be called on a fresh
// site.
func Populate(site *core.Site, cfg Config) (*Manifest, error) {
	if len(cfg.Years) == 0 {
		return nil, fmt.Errorf("datagen: config needs at least one year")
	}
	g := &generator{
		site: site,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		man: &Manifest{
			Planted: map[string]int64{},
		},
		deptKind:       map[string]string{},
		courseTheme:    map[int64]subTheme{},
		courseDiff:     map[int64]float64{},
		courseDept:     map[int64]string{},
		instructors:    map[string][]int64{},
		reservedTitles: map[string]bool{},
	}
	steps := []func() error{
		g.genDepartments,
		g.genInstructors,
		g.genCourses,
		g.genOfferings,
		g.genPrereqs,
		g.genPeople,
		g.genEnrollments,
		g.genSampleRatings,
		g.genComments,
		g.genStandaloneRatings,
		g.genOfficialGrades,
		g.genTextbooks,
		g.genQA,
		g.genPrograms,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if err := site.RefreshDerived(); err != nil {
		return nil, err
	}
	if err := site.BuildSearchIndex(); err != nil {
		return nil, err
	}
	if err := site.BuildAuxIndexes(); err != nil {
		return nil, err
	}
	return g.man, nil
}

func (g *generator) genDepartments() error {
	n := g.cfg.Departments
	if n > len(departments) {
		n = len(departments)
	}
	for _, d := range departments[:n] {
		if err := g.site.Catalog.AddDepartment(catalog.Department{ID: d.ID, Name: d.Name, School: d.School}); err != nil {
			return err
		}
		g.deptIDs = append(g.deptIDs, d.ID)
		g.deptKind[d.ID] = d.Kind
		if themedDeptKinds[d.Kind] {
			g.themedDepts = append(g.themedDepts, d.ID)
		}
	}
	if len(g.themedDepts) == 0 {
		return fmt.Errorf("datagen: need at least one humanities/social department for theme calibration")
	}
	return nil
}

func (g *generator) name() string {
	return firstNames[g.rng.Intn(len(firstNames))] + " " + lastNames[g.rng.Intn(len(lastNames))]
}

func (g *generator) genInstructors() error {
	for i := 0; i < g.cfg.Faculty; i++ {
		dep := g.deptIDs[g.rng.Intn(len(g.deptIDs))]
		id, err := g.site.Catalog.AddInstructor(catalog.Instructor{Name: "Prof. " + g.name(), DepID: dep})
		if err != nil {
			return err
		}
		g.instructors[dep] = append(g.instructors[dep], id)
	}
	return nil
}

// plantCourse inserts one anchor course.
func (g *generator) plantCourse(key, dep, number, title, desc string, units int64) error {
	id, err := g.site.Catalog.AddCourse(catalog.Course{DepID: dep, Number: number, Title: title, Description: desc, Units: units})
	if err != nil {
		return err
	}
	g.man.Planted[key] = id
	g.courseIDs = append(g.courseIDs, id)
	g.courseTheme[id] = themeNone
	g.courseDiff[id] = 0.25 + 0.4*g.rng.Float64()
	g.courseDept[id] = dep
	return nil
}

func (g *generator) genCourses() error {
	// Anchors first (they take the lowest ids and hence sit in the
	// "popular" pool that attracts comments and enrollments).
	planted := []struct {
		key, dep, num, title, desc string
		units                      int64
	}{
		{"intro-programming", "CS", "106A", "Introduction to Programming",
			"Introduction to the engineering of computer programs: variables, control flow, decomposition, and testing. No prior experience required.", 5},
		{"programming-methodology", "CS", "106X", "Introduction to Programming Methodology",
			"Accelerated introduction covering abstraction, object decomposition and style for students with prior experience.", 5},
		{"programming-abstractions", "CS", "106B", "Programming Abstractions",
			"Abstraction and its relation to programming: recursion, classic data structures, and algorithm analysis.", 5},
		{"advanced-programming", "CS", "107", "Advanced Programming",
			"The machine model beneath the abstractions: memory, pointers, generic code, and performance.", 5},
		{"operating-systems", "CS", "140", "Operating Systems",
			"Processes, scheduling, virtual memory, file systems and concurrency, with a substantial kernel project.", 4},
		{"java-programming", "CS", "108", "Object Oriented Programming in Java",
			"Java language practice: object oriented design, collections, graphical interfaces, and a team project.", 4},
		{"greek-science", "HISTORY", "114", "History of Science in Antiquity",
			"The history of science from Thales to Ptolemy, centered on the famous greek scientists and their mathematical astronomy.", 3},
	}
	for _, p := range planted {
		if _, ok := g.site.Catalog.Department(p.dep); !ok {
			continue // tiny configs may omit the department
		}
		if err := g.plantCourse(p.key, p.dep, p.num, p.title, p.desc, p.units); err != nil {
			return err
		}
		g.reservedTitles[p.title] = true
	}

	nGen := g.cfg.Courses - len(g.courseIDs)
	if nGen < 0 {
		nGen = 0
	}
	themedTotal := int(math.Round(float64(g.cfg.Courses) * fig3Fraction))
	africanTotal := int(math.Round(float64(themedTotal) * fig4Fraction))
	latinTotal := int(math.Round(float64(themedTotal) * 0.15))
	indiansTotal := int(math.Round(float64(themedTotal) * 0.07))
	g.man.ThemedCourses = themedTotal
	g.man.AfricanAmericanCourses = africanTotal

	themedSoFar, africanSoFar, latinSoFar, indiansSoFar := 0, 0, 0, 0
	for i := 0; i < nGen; i++ {
		// Bresenham spread: exactly themedTotal of the nGen generated
		// courses carry the theme, evenly interleaved.
		themed := (i*themedTotal)/nGen != ((i+1)*themedTotal)/nGen
		theme := themeNone
		if themed {
			switch {
			case africanSoFar < africanTotal && themedSoFar%9 == 0:
				theme = themeAfrican
				africanSoFar++
			case latinSoFar < latinTotal && themedSoFar%9 == 1:
				theme = themeLatin
				latinSoFar++
			case indiansSoFar < indiansTotal && themedSoFar%9 == 2:
				theme = themeIndians
				indiansSoFar++
			default:
				theme = themePlain
			}
			themedSoFar++
		}
		if err := g.genOneCourse(i, theme); err != nil {
			return err
		}
	}
	// Distribute any sub-theme remainders onto plain themed courses.
	for _, rem := range []struct {
		left  *int
		total int
		theme subTheme
	}{{&africanSoFar, africanTotal, themeAfrican}, {&latinSoFar, latinTotal, themeLatin}, {&indiansSoFar, indiansTotal, themeIndians}} {
		for *rem.left < rem.total {
			if !g.promotePlain(rem.theme) {
				break
			}
			*rem.left++
		}
	}
	return nil
}

// promotePlain upgrades one plain-themed course to the given sub-theme,
// rewriting its description to carry the sub-theme phrase.
func (g *generator) promotePlain(to subTheme) bool {
	for _, id := range g.courseIDs {
		if g.courseTheme[id] != themePlain {
			continue
		}
		g.courseTheme[id] = to
		extra := g.themeSentence(to)
		err := g.site.DB.MustTable("Courses").UpdateByKey(
			[]relation.Value{id},
			func(r relation.Row) relation.Row {
				desc, _ := r[4].(string)
				r[4] = desc + " " + extra
				return r
			})
		return err == nil
	}
	return false
}

// themeSentence produces the guaranteed theme text for a description.
// Templates vary their connective words so the data cloud sees the
// thematic bigrams ("american history", "latin american") rather than
// frozen template artifacts.
func (g *generator) themeSentence(t subTheme) string {
	cw := func() string { return themeCowords[g.rng.Intn(len(themeCowords))] }
	pick := func(ts []string) string { return ts[g.rng.Intn(len(ts))] }
	switch t {
	case themePlain:
		return fmt.Sprintf(pick([]string{
			"A survey of american %s and the forces behind american %s.",
			"Explores american %s from the colonial era to the present, with a unit on %s.",
			"Readings trace american %s through primary sources and %s.",
			"How american %s shaped %s across the twentieth century.",
			"Seminar on american %s, with weekly debate over %s.",
			"Close study of american %s beside comparative cases in %s.",
		}), cw(), cw())
	case themeAfrican:
		return fmt.Sprintf(pick([]string{
			"Centers the african american experience in %s and american %s.",
			"Examines african american %s and its legacies for american %s.",
			"Traces african american %s from reconstruction onward, against american %s.",
			"Foregrounds african american %s, music, and american %s.",
		}), cw(), cw())
	case themeLatin:
		return fmt.Sprintf(pick([]string{
			"Comparative readings in latin american %s and american %s.",
			"Special attention to latin american %s alongside american %s.",
			"Surveys latin american %s and hemispheric american %s.",
			"New work on latin american %s in dialogue with american %s.",
		}), cw(), cw())
	case themeIndians:
		return fmt.Sprintf("Examines %s within american %s.", indiansContexts[g.rng.Intn(len(indiansContexts))], cw())
	}
	return ""
}

// sentence builds n neutral words, seasoned with the department's
// title-noun family.
func (g *generator) sentence(dep string, n int) string {
	kind := g.deptKind[dep]
	nouns := titleNouns[kind]
	out := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		var w string
		if g.rng.Float64() < 0.15 && len(nouns) > 0 {
			w = nouns[g.rng.Intn(len(nouns))]
		} else {
			w = neutralWords[g.rng.Intn(len(neutralWords))]
		}
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, w...)
	}
	return string(out)
}

func (g *generator) genOneCourse(i int, theme subTheme) error {
	var dep string
	if theme != themeNone {
		dep = g.themedDepts[g.rng.Intn(len(g.themedDepts))]
	} else {
		dep = g.deptIDs[g.rng.Intn(len(g.deptIDs))]
	}
	kind := g.deptKind[dep]
	nouns := titleNouns[kind]
	noun := nouns[g.rng.Intn(len(nouns))]
	var title string
	switch g.rng.Intn(5) {
	case 0:
		title = "Introduction to " + noun
	case 1:
		title = "Advanced " + noun
	case 2:
		title = "Topics in " + noun
	case 3:
		title = noun + " " + titleAdjuncts[g.rng.Intn(len(titleAdjuncts))]
	default:
		title = noun + " and " + nouns[g.rng.Intn(len(nouns))]
	}
	// Themed courses often carry the theme in the title, like the
	// Figure 3 result list ("Latin American Studies", ...).
	if theme != themeNone && g.rng.Float64() < 0.4 {
		switch theme {
		case themeAfrican:
			title = "African American " + noun
		case themeLatin:
			title = "Latin American " + noun
		case themeIndians:
			title = "American Indians: " + noun
		default:
			title = "American " + noun
		}
	}
	// Anchor titles are reserved so the Figure 5(a) workflow has one
	// unambiguous target; colliding generated titles get a suffix.
	if g.reservedTitles[title] {
		title += " " + titleAdjuncts[g.rng.Intn(len(titleAdjuncts))]
	}
	desc := g.sentence(dep, 20+g.rng.Intn(25)) + "."
	if theme != themeNone {
		desc += " " + g.themeSentence(theme)
	}
	number := fmt.Sprintf("%d%s", 10+g.rng.Intn(280), string(rune('A'+g.rng.Intn(3))))
	id, err := g.site.Catalog.AddCourse(catalog.Course{
		DepID: dep, Number: number, Title: title, Description: desc,
		Units: int64(1 + g.rng.Intn(5)),
	})
	if err != nil {
		return err
	}
	g.courseIDs = append(g.courseIDs, id)
	g.courseTheme[id] = theme
	g.courseDiff[id] = g.rng.Float64()
	g.courseDept[id] = dep
	return nil
}

func (g *generator) genOfferings() error {
	slots := []struct {
		days       string
		start, end int64
	}{
		{"MWF", 9 * 60, 9*60 + 50}, {"MWF", 10 * 60, 10*60 + 50}, {"MWF", 11 * 60, 11*60 + 50},
		{"MWF", 13 * 60, 13*60 + 50}, {"TR", 9 * 60, 10*60 + 15}, {"TR", 11 * 60, 12*60 + 15},
		{"TR", 13*60 + 30, 14*60 + 45}, {"MW", 15 * 60, 16*60 + 20}, {"F", 13 * 60, 15 * 60},
	}
	terms := []catalog.Term{catalog.Autumn, catalog.Winter, catalog.Spring}
	for _, cid := range g.courseIDs {
		dep := g.courseDept[cid]
		insts := g.instructors[dep]
		n := 1 + g.rng.Intn(2)
		_, planted := g.plantedID(cid)
		for k := 0; k < n; k++ {
			year := g.cfg.Years[g.rng.Intn(len(g.cfg.Years))]
			if planted {
				// Anchors are always offered in the last (paper: 2008)
				// year so the Figure 5 workflows find them.
				year = g.cfg.Years[len(g.cfg.Years)-1]
			}
			slot := slots[g.rng.Intn(len(slots))]
			var inst int64
			if len(insts) > 0 {
				inst = insts[g.rng.Intn(len(insts))]
			}
			if _, err := g.site.Catalog.AddOffering(catalog.Offering{
				CourseID: cid, Year: year, Term: terms[g.rng.Intn(len(terms))],
				Days: slot.days, StartMin: slot.start, EndMin: slot.end, InstructorID: inst,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *generator) plantedID(cid int64) (string, bool) {
	for k, id := range g.man.Planted {
		if id == cid {
			return k, true
		}
	}
	return "", false
}

func (g *generator) genPrereqs() error {
	// Planted chain: 106A → 106B → 107; 106B → 140.
	chain := [][2]string{
		{"programming-abstractions", "intro-programming"},
		{"advanced-programming", "programming-abstractions"},
		{"operating-systems", "programming-abstractions"},
		{"java-programming", "intro-programming"},
	}
	for _, c := range chain {
		a, okA := g.man.Planted[c[0]]
		b, okB := g.man.Planted[c[1]]
		if okA && okB {
			if err := g.site.Catalog.AddPrereq(a, b); err != nil {
				return err
			}
		}
	}
	// Random in-department chains (acyclic by id order).
	byDept := map[string][]int64{}
	for _, cid := range g.courseIDs {
		byDept[g.courseDept[cid]] = append(byDept[g.courseDept[cid]], cid)
	}
	// Sorted, because the loop draws from the rng: map order would give
	// two processes with one seed different Prereqs tables.
	depts := make([]string, 0, len(byDept))
	for dep := range byDept {
		depts = append(depts, dep)
	}
	sort.Strings(depts)
	for _, dep := range depts {
		ids := byDept[dep]
		for i := 1; i < len(ids); i++ {
			if g.rng.Float64() < 0.12 {
				if err := g.site.Catalog.AddPrereq(ids[i], ids[g.rng.Intn(i)]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (g *generator) genPeople() error {
	lastYear := g.cfg.Years[len(g.cfg.Years)-1]
	for i := 0; i < g.cfg.DirectoryStudents; i++ {
		undergrad := i < g.cfg.Undergrads || (i >= g.cfg.RegisteredStudents && g.rng.Float64() < 0.5)
		if err := g.site.Directory.Add(community.DirectoryEntry{
			Username:  fmt.Sprintf("stu%05d", i+1),
			Name:      g.name(),
			Role:      community.RoleStudent,
			DepID:     g.deptIDs[g.rng.Intn(len(g.deptIDs))],
			ClassYear: lastYear + 1 + int64(g.rng.Intn(4)),
			Undergrad: undergrad,
		}); err != nil {
			return err
		}
	}
	for i := 0; i < g.cfg.Faculty; i++ {
		if err := g.site.Directory.Add(community.DirectoryEntry{
			Username: fmt.Sprintf("fac%04d", i+1),
			Name:     g.name(),
			Role:     community.RoleFaculty,
			DepID:    g.deptIDs[g.rng.Intn(len(g.deptIDs))],
		}); err != nil {
			return err
		}
	}
	for i := 0; i < g.cfg.Staff; i++ {
		if err := g.site.Directory.Add(community.DirectoryEntry{
			Username: fmt.Sprintf("staff%03d", i+1),
			Name:     g.name(),
			Role:     community.RoleStaff,
			DepID:    g.deptIDs[g.rng.Intn(len(g.deptIDs))],
		}); err != nil {
			return err
		}
	}
	// Registration: the first RegisteredStudents students, every staff
	// member, and a twentieth of the faculty.
	for i := 0; i < g.cfg.RegisteredStudents; i++ {
		u, err := g.site.Community.Register(fmt.Sprintf("stu%05d", i+1))
		if err != nil {
			return err
		}
		g.studentIDs = append(g.studentIDs, u.ID)
		if g.rng.Float64() < 0.05 {
			if err := g.site.Community.SetSharePlans(u.ID, false); err != nil {
				return err
			}
		}
	}
	for i := 0; i < g.cfg.Staff; i++ {
		u, err := g.site.Community.Register(fmt.Sprintf("staff%03d", i+1))
		if err != nil {
			return err
		}
		g.staffIDs = append(g.staffIDs, u.ID)
	}
	for i := 0; i < g.cfg.Faculty; i += 20 {
		u, err := g.site.Community.Register(fmt.Sprintf("fac%04d", i+1))
		if err != nil {
			return err
		}
		g.facultyIDs = append(g.facultyIDs, u.ID)
	}
	if len(g.studentIDs) >= 444 {
		g.man.SampleStudent = g.studentIDs[443]
		g.man.TwinStudent = g.studentIDs[444]
	} else if len(g.studentIDs) >= 2 {
		g.man.SampleStudent = g.studentIDs[0]
		g.man.TwinStudent = g.studentIDs[1]
	}
	return nil
}

// pickCourse draws a course id with popularity skew: anchors and other
// low-id courses attract the bulk of activity, like a real catalog's
// intro courses.
func (g *generator) pickCourse() int64 {
	if g.rng.Float64() < 0.6 {
		pool := len(g.courseIDs) / 20
		if pool < 10 {
			pool = min(10, len(g.courseIDs))
		}
		return g.courseIDs[g.rng.Intn(pool)]
	}
	return g.courseIDs[g.rng.Intn(len(g.courseIDs))]
}

// gradeFor samples a letter grade from the course's difficulty profile.
func (g *generator) gradeFor(cid int64) catalog.Grade {
	mu := g.courseDiff[cid] * 6 // 0 (easy A) … 6 (C+ mean)
	idx := int(math.Round(mu + g.rng.NormFloat64()*1.6))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(catalog.LetterGrades) {
		idx = len(catalog.LetterGrades) - 1
	}
	return catalog.LetterGrades[idx]
}

func (g *generator) genEnrollments() error {
	terms := []catalog.Term{catalog.Autumn, catalog.Winter, catalog.Spring}
	lastYear := g.cfg.Years[len(g.cfg.Years)-1]
	for _, su := range g.studentIDs {
		taken := map[int64]bool{}
		for _, year := range g.cfg.Years {
			for _, term := range terms {
				n := 1 + g.rng.Intn(g.cfg.CoursesPerQuarter*2)
				for k := 0; k < n; k++ {
					cid := g.pickCourse()
					if taken[cid] {
						continue
					}
					taken[cid] = true
					planned := year == lastYear && term == catalog.Spring && g.rng.Float64() < 0.5
					e := planner.Entry{SuID: su, CourseID: cid, Year: year, Term: term, Planned: planned}
					if !planned && g.rng.Float64() < 0.9 {
						e.Grade = g.gradeFor(cid)
					}
					if err := g.site.Planner.Record(e); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// genSampleRatings plants a dense, predictable rating history for the
// sample student and a near-identical twin, so the Figure 5(b) workflow
// has a meaningful nearest neighbor at every scale.
func (g *generator) genSampleRatings() error {
	if g.man.SampleStudent == 0 {
		return nil
	}
	keys := []string{"intro-programming", "programming-abstractions", "advanced-programming",
		"operating-systems", "java-programming", "greek-science"}
	scores := []float64{5, 5, 4, 3, 4, 2}
	year := g.cfg.Years[len(g.cfg.Years)-1]
	for i, key := range keys {
		cid, ok := g.man.Planted[key]
		if !ok {
			continue
		}
		for _, pair := range []struct {
			su    int64
			delta float64
		}{{g.man.SampleStudent, 0}, {g.man.TwinStudent, 0}} {
			if pair.su == 0 {
				continue
			}
			r := scores[i] + pair.delta
			if _, err := g.site.Comments.Add(comments.Comment{
				SuID: pair.su, CourseID: cid, Year: year, Term: "Autumn",
				Text:   g.commentText(cid),
				Rating: r, Date: fmt.Sprintf("%d-10-01", year),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// commentText builds one comment for a course, theme-aware.
func (g *generator) commentText(cid int64) string {
	text := commentOpeners[g.rng.Intn(len(commentOpeners))] + ". " +
		g.sentence(g.courseDept[cid], 6+g.rng.Intn(14))
	theme := g.courseTheme[cid]
	if theme == themeNone {
		return text
	}
	cw := func() string { return themeCowords[g.rng.Intn(len(themeCowords))] }
	pick := func(ts []string) string { return ts[g.rng.Intn(len(ts))] }
	if g.rng.Float64() < 0.5 {
		text += pick([]string{
			" loved the american %s unit",
			" strong weeks on american %s",
			" the american %s readings were great",
			" wish there was more american %s",
			" american %s came alive here",
			" finally understood american %s",
		})
		text = fmt.Sprintf(text, cw())
	}
	if g.rng.Float64() < 0.35 {
		switch theme {
		case themeAfrican:
			text += fmt.Sprintf(pick([]string{
				" and the african american %s unit was the highlight",
				" best part was the african american %s week",
				" the african american %s sources were moving",
			}), cw())
		case themeLatin:
			text += fmt.Sprintf(pick([]string{
				" and the latin american %s readings were strong",
				" the latin american %s section surprised me",
				" more latin american %s please",
			}), cw())
		case themeIndians:
			text += " and the weeks on " + indiansContexts[g.rng.Intn(len(indiansContexts))] + " were fascinating"
		default:
			text += fmt.Sprintf(pick([]string{
				" especially the american %s debates",
				" the discussion of american %s got heated",
				" great lectures on american %s",
			}), cw())
		}
	}
	return text
}

func (g *generator) genComments() error {
	if len(g.studentIDs) == 0 {
		return nil
	}
	terms := []string{"Autumn", "Winter", "Spring"}
	remaining := g.cfg.Comments - g.site.Comments.Count()
	for i := 0; i < remaining; i++ {
		cid := g.pickCourse()
		su := g.studentIDs[g.rng.Intn(len(g.studentIDs))]
		year := g.cfg.Years[g.rng.Intn(len(g.cfg.Years))]
		c := comments.Comment{
			SuID: su, CourseID: cid, Year: year, Term: terms[g.rng.Intn(len(terms))],
			Text: g.commentText(cid),
			Date: fmt.Sprintf("%d-%02d-%02d", year, 1+g.rng.Intn(12), 1+g.rng.Intn(28)),
		}
		if g.rng.Float64() < 0.8 {
			// Ratings lean toward the course's quality profile.
			r := 5.5 - g.courseDiff[cid]*3 + g.rng.NormFloat64()
			if r < 1 {
				r = 1
			}
			if r > 5 {
				r = 5
			}
			c.Rating = math.Round(r)
		}
		if _, err := g.site.Comments.Add(c); err != nil {
			return err
		}
	}
	// A sprinkling of accuracy votes so comment quality ordering is live.
	votes := remaining / 20
	maxComment := int64(g.site.Comments.Count())
	for i := 0; i < votes; i++ {
		commentID := 1 + g.rng.Int63n(maxComment)
		voter := g.studentIDs[g.rng.Intn(len(g.studentIDs))]
		if err := g.site.Comments.VoteAccuracy(commentID, voter, g.rng.Float64() < 0.8); err != nil {
			return err
		}
	}
	// Faculty participation (§2): instructor notes on the anchor
	// courses and responses to a few early comments.
	for _, key := range []string{"intro-programming", "operating-systems"} {
		cid, ok := g.man.Planted[key]
		if !ok {
			continue
		}
		insts := g.instructors[g.courseDept[cid]]
		if len(insts) == 0 {
			continue
		}
		if _, err := g.site.Comments.AddNote(cid, insts[0],
			"Updated syllabus this year; see the new project sequence and office hours."); err != nil {
			return err
		}
	}
	for i := int64(1); i <= maxComment && i <= 20; i += 4 {
		insts := g.instructors[g.deptIDs[0]]
		if len(insts) == 0 {
			break
		}
		if _, err := g.site.Comments.Respond(i, insts[0],
			"Thanks for the feedback; the grading rubric is posted."); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) genStandaloneRatings() error {
	if len(g.studentIDs) == 0 {
		return nil
	}
	attempts := 0
	for g.site.Comments.RatingCount() < g.cfg.Ratings && attempts < g.cfg.Ratings*3 {
		attempts++
		cid := g.pickCourse()
		su := g.studentIDs[g.rng.Intn(len(g.studentIDs))]
		r := 5.5 - g.courseDiff[cid]*3 + g.rng.NormFloat64()
		if r < 1 {
			r = 1
		}
		if r > 5 {
			r = 5
		}
		if err := g.site.Comments.Rate(su, cid, math.Round(r)); err != nil {
			return err
		}
	}
	return nil
}

// gradeProfile returns the per-letter probability distribution implied
// by a course's difficulty (the same normal model gradeFor samples).
func (g *generator) gradeProfile(cid int64) []float64 {
	mu := g.courseDiff[cid] * 6
	const sigma = 1.6
	probs := make([]float64, len(catalog.LetterGrades))
	total := 0.0
	for i := range probs {
		d := (float64(i) - mu) / sigma
		probs[i] = math.Exp(-0.5 * d * d)
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	return probs
}

// genOfficialGrades loads official distributions as the *expected*
// counts of the same per-course difficulty profile the self-reported
// grades are sampled from. The registrar sees the whole class while
// CourseRank sees a sample, so the official side is the low-noise one —
// which is what makes the §2.2 Engineering comparison come out "very
// close".
func (g *generator) genOfficialGrades() error {
	for i, cid := range g.courseIDs {
		// Official data exists for roughly half the catalog, always
		// including the popular pool.
		if i >= len(g.courseIDs)/20 && g.rng.Float64() > 0.5 {
			continue
		}
		classSize := 15 + g.rng.Intn(120)
		probs := g.gradeProfile(cid)
		for gi, p := range probs {
			n := int(math.Round(p * float64(classSize)))
			if n == 0 {
				continue
			}
			if err := g.site.Stats.LoadOfficial(cid, g.cfg.Years[len(g.cfg.Years)-1], catalog.LetterGrades[gi], n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *generator) genTextbooks() error {
	for i, cid := range g.courseIDs {
		if g.rng.Float64() > 0.3 {
			continue
		}
		var reporter int64
		if len(g.studentIDs) > 0 && g.rng.Float64() < 0.8 {
			reporter = g.studentIDs[g.rng.Intn(len(g.studentIDs))]
		}
		title := fmt.Sprintf("%s of %s",
			bookTitleWords[g.rng.Intn(len(bookTitleWords))],
			titleNouns[g.deptKind[g.courseDept[cid]]][g.rng.Intn(len(titleNouns[g.deptKind[g.courseDept[cid]]]))])
		bid, err := g.site.Catalog.ReportTextbook(catalog.Textbook{
			CourseID: cid, Title: title, Author: g.name(), ReportedBy: reporter,
		})
		if err != nil {
			return err
		}
		g.bookIDs = append(g.bookIDs, bid)
		_ = i
	}
	// Listings against the reported books.
	for i := 0; i < g.cfg.BookListings && len(g.bookIDs) > 0 && len(g.studentIDs) > 0; i++ {
		side := bookx.Buy
		price := 20 + g.rng.Float64()*60
		if g.rng.Float64() < 0.5 {
			side = bookx.Sell
			price = 15 + g.rng.Float64()*70
		}
		if _, err := g.site.Books.Post(bookx.Listing{
			BookID: g.bookIDs[g.rng.Intn(len(g.bookIDs))],
			SuID:   g.studentIDs[g.rng.Intn(len(g.studentIDs))],
			Side:   side, Price: math.Round(price),
		}); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) genQA() error {
	if len(g.staffIDs) > 0 {
		faqs := []struct{ q, a string }{
			{"Who do I see to have my program approved?", "Bring the worksheet to your department student services office."},
			{"What is a good introductory class for non-majors?", "Look for 3-unit introductory courses without prerequisites and read the course cloud."},
		}
		for _, dep := range g.deptIDs {
			for k := 0; k < g.cfg.QASeedPerDept && k < len(faqs); k++ {
				staff := g.staffIDs[g.rng.Intn(len(g.staffIDs))]
				if _, err := g.site.QA.SeedFAQ(staff, dep, faqs[k].q, faqs[k].q, faqs[k].a); err != nil {
					return err
				}
			}
		}
	}
	if len(g.studentIDs) < 3 {
		return nil
	}
	for i := 0; i < g.cfg.StudentQuestions; i++ {
		asker := g.studentIDs[g.rng.Intn(len(g.studentIDs))]
		dep := g.deptIDs[g.rng.Intn(len(g.deptIDs))]
		qid, _, err := g.site.QA.Ask(qa.Question{
			SuID:  asker,
			Title: fmt.Sprintf("Is %s manageable alongside a full load?", dep),
			Text:  g.sentence(dep, 12),
			DepID: dep,
		})
		if err != nil {
			return err
		}
		nAns := 1 + g.rng.Intn(3)
		var aids []int64
		for k := 0; k < nAns; k++ {
			aid, err := g.site.QA.Answer(qa.Answer{QID: qid, SuID: g.studentIDs[g.rng.Intn(len(g.studentIDs))], Text: g.sentence(dep, 10)})
			if err != nil {
				return err
			}
			aids = append(aids, aid)
		}
		for k := 0; k < g.rng.Intn(4); k++ {
			_ = g.site.QA.Vote(aids[g.rng.Intn(len(aids))], g.studentIDs[g.rng.Intn(len(g.studentIDs))])
		}
		if g.rng.Float64() < 0.5 {
			if err := g.site.QA.MarkBest(qid, aids[0], asker); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *generator) genPrograms() error {
	intro, ok1 := g.man.Planted["intro-programming"]
	abstr, ok2 := g.man.Planted["programming-abstractions"]
	if ok1 && ok2 {
		var electives []int64
		for _, c := range g.site.Catalog.CoursesByDept("CS") {
			electives = append(electives, c.ID)
			if len(electives) >= 12 {
				break
			}
		}
		prog := requirements.Program{
			Name:  "CS-BS",
			DepID: "CS",
			Requirements: []requirements.Requirement{
				{Name: "Introductory sequence", Kind: requirements.KindAll, Courses: []int64{intro, abstr}},
				{Name: "Systems depth", Kind: requirements.KindChoose, K: 1, Courses: plantedList(g.man, "advanced-programming", "operating-systems", "java-programming")},
				{Name: "Electives", Kind: requirements.KindUnits, Units: 12, Courses: electives},
			},
		}
		if err := g.site.Requirements.Define(prog); err != nil {
			return err
		}
		g.man.Programs = append(g.man.Programs, "CS-BS")
	}
	// One humanities program over the largest themed department.
	if len(g.themedDepts) > 0 {
		dep := g.themedDepts[0]
		var ids []int64
		for _, c := range g.site.Catalog.CoursesByDept(dep) {
			ids = append(ids, c.ID)
			if len(ids) >= 10 {
				break
			}
		}
		if len(ids) >= 3 {
			prog := requirements.Program{
				Name:  dep + "-BA",
				DepID: dep,
				Requirements: []requirements.Requirement{
					{Name: "Core", Kind: requirements.KindChoose, K: 2, Courses: ids[:3]},
					{Name: "Breadth", Kind: requirements.KindUnits, Units: 9, Courses: ids},
				},
			}
			if err := g.site.Requirements.Define(prog); err != nil {
				return err
			}
			g.man.Programs = append(g.man.Programs, prog.Name)
		}
	}
	return nil
}

func plantedList(m *Manifest, keys ...string) []int64 {
	var out []int64
	for _, k := range keys {
		if id, ok := m.Planted[k]; ok {
			out = append(out, id)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
