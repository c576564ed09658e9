package catalog

import (
	"testing"
	"testing/quick"

	"courserank/internal/relation"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Setup(relation.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDepartment(Department{ID: "CS", Name: "Computer Science", School: "Engineering"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDepartment(Department{ID: "HIST", Name: "History", School: "Humanities and Sciences"}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGradePoints(t *testing.T) {
	cases := []struct {
		g   Grade
		pts float64
		gpa bool
	}{
		{"A+", 4.3, true}, {"A", 4.0, true}, {"B-", 2.7, true}, {"F", 0, true},
		{"P", 0, false}, {"", 0, false}, {"Z", 0, false},
	}
	for _, c := range cases {
		p, ok := c.g.Points()
		if ok != c.gpa || (ok && p != c.pts) {
			t.Errorf("Grade(%q).Points() = %v, %v", c.g, p, ok)
		}
		if c.g.Valid() != c.gpa {
			t.Errorf("Grade(%q).Valid() = %v", c.g, c.g.Valid())
		}
	}
	if len(LetterGrades) != 13 {
		t.Errorf("LetterGrades = %d", len(LetterGrades))
	}
}

func TestTermIndex(t *testing.T) {
	if TermIndex(Autumn) != 0 || TermIndex(Summer) != 3 {
		t.Error("term order wrong")
	}
	if TermIndex("Fall") != -1 {
		t.Error("unknown term should be -1")
	}
}

func TestCourseLifecycle(t *testing.T) {
	s := newStore(t)
	id, err := s.AddCourse(Course{DepID: "CS", Number: "106A", Title: "Programming Methodology", Description: "intro", Units: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.Course(id)
	if !ok || c.Title != "Programming Methodology" || c.Units != 5 {
		t.Fatalf("Course = %+v", c)
	}
	if c.Code() != "CS106A" {
		t.Errorf("Code = %q", c.Code())
	}
	if _, err := s.AddCourse(Course{DepID: "NOPE", Number: "1", Title: "x", Units: 3}); err == nil {
		t.Error("unknown department should fail")
	}
	if _, err := s.AddCourse(Course{DepID: "CS", Number: "1", Title: "x", Units: 0}); err == nil {
		t.Error("zero units should fail")
	}
	if got := s.CoursesByDept("CS"); len(got) != 1 {
		t.Errorf("CoursesByDept = %v", got)
	}
	if s.CourseCount() != 1 {
		t.Error("CourseCount")
	}
	n := 0
	s.EachCourse(func(Course) bool { n++; return true })
	if n != 1 {
		t.Error("EachCourse")
	}
}

func TestOfferings(t *testing.T) {
	s := newStore(t)
	cid, _ := s.AddCourse(Course{DepID: "CS", Number: "106A", Title: "Programming", Units: 5})
	oid, err := s.AddOffering(Offering{CourseID: cid, Year: 2008, Term: Autumn, Days: "MWF", StartMin: 600, EndMin: 650})
	if err != nil {
		t.Fatal(err)
	}
	if oid == 0 {
		t.Error("offering id should be assigned")
	}
	if _, err := s.AddOffering(Offering{CourseID: 999, Year: 2008, Term: Autumn, Days: "M", StartMin: 1, EndMin: 2}); err == nil {
		t.Error("unknown course should fail")
	}
	if _, err := s.AddOffering(Offering{CourseID: cid, Year: 2008, Term: "Fall", Days: "M", StartMin: 1, EndMin: 2}); err == nil {
		t.Error("bad term should fail")
	}
	if _, err := s.AddOffering(Offering{CourseID: cid, Year: 2008, Term: Autumn, Days: "MX", StartMin: 1, EndMin: 2}); err == nil {
		t.Error("bad day should fail")
	}
	if _, err := s.AddOffering(Offering{CourseID: cid, Year: 2008, Term: Autumn, Days: "M", StartMin: 5, EndMin: 5}); err == nil {
		t.Error("zero-length meeting should fail")
	}
	if got := s.Offerings(cid); len(got) != 1 || got[0].Days != "MWF" {
		t.Errorf("Offerings = %v", got)
	}
	if got := s.OfferingsIn(2008, Autumn); len(got) != 1 {
		t.Errorf("OfferingsIn = %v", got)
	}
	if got := s.OfferingsIn(2009, Autumn); len(got) != 0 {
		t.Errorf("OfferingsIn wrong year = %v", got)
	}
}

func TestOverlaps(t *testing.T) {
	base := Offering{Year: 2008, Term: Autumn, Days: "MWF", StartMin: 600, EndMin: 660}
	cases := []struct {
		o    Offering
		want bool
	}{
		{Offering{Year: 2008, Term: Autumn, Days: "MWF", StartMin: 630, EndMin: 690}, true},
		{Offering{Year: 2008, Term: Autumn, Days: "TR", StartMin: 600, EndMin: 660}, false},  // disjoint days
		{Offering{Year: 2008, Term: Winter, Days: "MWF", StartMin: 600, EndMin: 660}, false}, // other term
		{Offering{Year: 2009, Term: Autumn, Days: "MWF", StartMin: 600, EndMin: 660}, false}, // other year
		{Offering{Year: 2008, Term: Autumn, Days: "F", StartMin: 660, EndMin: 720}, false},   // back-to-back
		{Offering{Year: 2008, Term: Autumn, Days: "F", StartMin: 659, EndMin: 720}, true},    // 1-minute overlap
	}
	for i, c := range cases {
		if got := base.Overlaps(c.o); got != c.want {
			t.Errorf("case %d: Overlaps = %v, want %v", i, got, c.want)
		}
		if c.o.Overlaps(base) != base.Overlaps(c.o) {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

// Property: Overlaps is symmetric for arbitrary meeting patterns.
func TestOverlapsSymmetricProperty(t *testing.T) {
	days := []string{"M", "TR", "MWF", "F", "MTWRF"}
	f := func(d1, d2, s1, s2 uint8, l1, l2 uint8) bool {
		a := Offering{Year: 2008, Term: Autumn, Days: days[int(d1)%len(days)], StartMin: int64(s1), EndMin: int64(s1) + int64(l1%90) + 1}
		b := Offering{Year: 2008, Term: Autumn, Days: days[int(d2)%len(days)], StartMin: int64(s2), EndMin: int64(s2) + int64(l2%90) + 1}
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPrereqsAndCycles(t *testing.T) {
	s := newStore(t)
	a, _ := s.AddCourse(Course{DepID: "CS", Number: "106A", Title: "A", Units: 5})
	b, _ := s.AddCourse(Course{DepID: "CS", Number: "106B", Title: "B", Units: 5})
	c, _ := s.AddCourse(Course{DepID: "CS", Number: "107", Title: "C", Units: 5})
	if err := s.AddPrereq(b, a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPrereq(c, b); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPrereq(a, a); err == nil {
		t.Error("self prereq should fail")
	}
	if err := s.AddPrereq(a, c); err == nil {
		t.Error("cycle a→c→b→a should be rejected")
	}
	if err := s.AddPrereq(a, 999); err == nil {
		t.Error("unknown course should fail")
	}
	if got := s.Prereqs(b); len(got) != 1 || got[0] != a {
		t.Errorf("Prereqs(b) = %v", got)
	}
}

func TestInstructors(t *testing.T) {
	s := newStore(t)
	id, err := s.AddInstructor(Instructor{Name: "Prof. Widom", DepID: "CS"})
	if err != nil {
		t.Fatal(err)
	}
	in, ok := s.Instructor(id)
	if !ok || in.Name != "Prof. Widom" {
		t.Fatalf("Instructor = %+v", in)
	}
	if _, ok := s.Instructor(999); ok {
		t.Error("missing instructor")
	}
}

func TestTextbooks(t *testing.T) {
	s := newStore(t)
	cid, _ := s.AddCourse(Course{DepID: "CS", Number: "145", Title: "Databases", Units: 4})
	bid, err := s.ReportTextbook(Textbook{CourseID: cid, Title: "Database Systems", Author: "GMUW", ReportedBy: 42})
	if err != nil {
		t.Fatal(err)
	}
	if bid == 0 {
		t.Error("book id")
	}
	if _, err := s.ReportTextbook(Textbook{CourseID: 999, Title: "x"}); err == nil {
		t.Error("unknown course should fail")
	}
	if _, err := s.ReportTextbook(Textbook{CourseID: cid, Title: ""}); err == nil {
		t.Error("empty title should fail")
	}
	books := s.Textbooks(cid)
	if len(books) != 1 || books[0].ReportedBy != 42 {
		t.Errorf("Textbooks = %v", books)
	}
}

func TestDepartments(t *testing.T) {
	s := newStore(t)
	if err := s.AddDepartment(Department{ID: ""}); err == nil {
		t.Error("empty id should fail")
	}
	d, ok := s.Department("CS")
	if !ok || d.School != "Engineering" {
		t.Errorf("Department = %+v", d)
	}
	if got := s.Departments(); len(got) != 2 {
		t.Errorf("Departments = %v", got)
	}
	if _, ok := s.Department("NOPE"); ok {
		t.Error("missing department")
	}
	if Open(s.DB()) == nil {
		t.Error("Open")
	}
}

// TestOfferingIn: a course's offering in one quarter is the first of its
// offerings, by slot, in that year and term, and no offering when it has
// none there.
func TestOfferingIn(t *testing.T) {
	s := newStore(t)
	cid, _ := s.AddCourse(Course{DepID: "CS", Number: "106A", Title: "Programming", Units: 5})
	other, _ := s.AddCourse(Course{DepID: "CS", Number: "106B", Title: "Abstractions", Units: 5})
	for _, o := range []Offering{
		{CourseID: cid, Year: 2008, Term: Winter, Days: "TR", StartMin: 600, EndMin: 650},
		{CourseID: other, Year: 2008, Term: Autumn, Days: "F", StartMin: 600, EndMin: 650},
		{CourseID: cid, Year: 2008, Term: Autumn, Days: "MWF", StartMin: 600, EndMin: 650},
		{CourseID: cid, Year: 2008, Term: Autumn, Days: "M", StartMin: 700, EndMin: 750},
	} {
		if _, err := s.AddOffering(o); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.OfferingIn(cid, 2008, Autumn)
	if want := s.Offerings(cid)[1]; !ok || got != want {
		t.Errorf("OfferingIn(2008 Autumn) = %+v %v, want %+v", got, ok, want)
	}
	if got, ok := s.OfferingIn(cid, 2009, Autumn); ok {
		t.Errorf("OfferingIn(2009 Autumn) = %+v, want none", got)
	}
	if got, ok := s.OfferingIn(cid, 2008, Spring); ok {
		t.Errorf("OfferingIn(2008 Spring) = %+v, want none", got)
	}
}
