package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// world is what the script generator knows about the deployment: the
// registered students, the catalog and the planted titles. It is read
// off an in-process twin of the server's site, so the program under
// test receives only the generated requests.
type world struct {
	students  []student // registration order; index = popularity rank
	courses   []int64   // ascending id; index = popularity rank (datagen's own skew favours low ids)
	courseDep []string  // department of courses[i]
	titles    []string  // titles of the planted anchor courses
}

type student struct {
	username string
	id       int64
}

// entry is one scripted request: the bytes that go on the wire plus the
// decoded arguments the twin's call table replays in process.
type entry struct {
	class   string
	student int // index into world.students
	method  string
	path    string   // request URI, query included
	url     *url.URL // path parsed once, host filled in at send time
	body    []byte

	q, refine  string
	course     int64
	dep, title string
	rating     float64
	text, term string
	grade      string
	year       int64
	k          int
}

// Zipf exponents of the load model (Digg-style concentration on a few
// hot users and stories, PAPERS.md).
const (
	zipfStudents = 1.1
	zipfCourses  = 1.1
	zipfTerms    = 1.2
)

// Scripted writes carry a year outside datagen's 2006–2008, so a review
// can never collide with a generated enrolment; the trace script uses
// its own year so it cannot collide with the load scripts either.
const (
	loadYear  = 2009
	traceYear = 2010
)

var quarters = []string{"Autumn", "Winter", "Spring", "Summer"}

// generator draws one client's script. Everything random comes from
// rng, which is seeded from (-seed, client) only.
type generator struct {
	w        world
	mix      []share
	own      []int // student indexes this client may act as
	year     int64
	rng      *rand.Rand
	zStudent *rand.Zipf
	zCourse  *rand.Zipf
	zTerm    *rand.Zipf
	zRefine  *rand.Zipf
	reviewed map[[3]int64]bool
}

func newGenerator(w world, mix []share, own []int, year, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{
		w: w, mix: mix, own: own, year: year, rng: rng,
		zStudent: rand.NewZipf(rng, zipfStudents, 1, uint64(len(own)-1)),
		zCourse:  rand.NewZipf(rng, zipfCourses, 1, uint64(len(w.courses)-1)),
		zTerm:    rand.NewZipf(rng, zipfTerms, 1, uint64(len(searchTerms)-1)),
		zRefine:  rand.NewZipf(rng, zipfTerms, 1, uint64(len(refinePairs)-1)),
		reviewed: map[[3]int64]bool{},
	}
}

func (g *generator) pickClass() string {
	r := g.rng.Intn(100)
	for _, s := range g.mix {
		if r < s.pct {
			return s.class
		}
		r -= s.pct
	}
	panic("bench: workload mix does not sum to 100")
}

func (g *generator) next() entry {
	e := entry{
		class:   g.pickClass(),
		student: g.own[g.zStudent.Uint64()],
		method:  "GET",
	}
	ci := int(g.zCourse.Uint64())
	switch e.class {
	case clSearch:
		e.q = searchTerms[g.zTerm.Uint64()]
		e.path = "/api/search?q=" + url.QueryEscape(e.q)
	case clSearchRefine:
		p := refinePairs[g.zRefine.Uint64()]
		e.q, e.refine = p[0], p[1]
		e.path = "/api/search?q=" + url.QueryEscape(e.q) + "&refine=" + url.QueryEscape(e.refine)
	case clCourse:
		e.course = g.w.courses[ci]
		e.path = "/api/course/" + strconv.FormatInt(e.course, 10)
	case clPlan:
		e.path = "/api/plan"
	case clPoints:
		e.path = "/api/points"
	case clRelated, clHybrid:
		e.title, e.k = g.w.titles[g.rng.Intn(len(g.w.titles))], 10
		e.path = "/api/recommend/" + e.class + "?k=10&title=" + url.QueryEscape(e.title)
	case clCF, clGradePeers, clTopRated:
		e.k = 10
		e.path = "/api/recommend/" + e.class + "?k=10"
	case clRated:
		e.k = 20
		e.path = "/api/recommend/" + e.class + "?k=20"
	case clDeptPopular:
		e.dep, e.k = g.w.courseDep[ci], 10
		e.path = "/api/recommend/" + e.class + "?k=10&dep=" + url.QueryEscape(e.dep)
	case clFeed:
		e.dep, e.k = g.w.courseDep[ci], 10
		e.path = "/api/feed/" + url.PathEscape(e.dep) + "?k=10"
	case clRate:
		e.method, e.path = "POST", "/api/rate"
		e.course, e.rating = g.w.courses[ci], float64(1+g.rng.Intn(5))
		e.body = mustJSON(map[string]any{"courseId": e.course, "rating": e.rating})
	case clComment:
		e.method, e.path = "POST", "/api/comment"
		e.course, e.rating = g.w.courses[ci], float64(1+g.rng.Intn(5))
		e.year, e.term = g.year, quarters[g.rng.Intn(len(quarters))]
		e.text = commentTexts[g.rng.Intn(len(commentTexts))]
		e.body = mustJSON(map[string]any{
			"courseId": e.course, "year": e.year, "term": e.term, "text": e.text, "rating": e.rating,
		})
	case clReview:
		e.method, e.path = "POST", "/api/review"
		// A review inserts an enrolment, and a second enrolment of the
		// same (student, course, year, term) is refused: redraw until
		// the tuple is new, so every scripted review is valid.
		for {
			ti := g.rng.Intn(len(quarters))
			e.course, e.term = g.w.courses[ci], quarters[ti]
			key := [3]int64{int64(e.student), e.course, int64(ti)}
			if !g.reviewed[key] {
				g.reviewed[key] = true
				break
			}
			ci = int(g.zCourse.Uint64())
		}
		e.year, e.grade, e.rating = g.year, "A", float64(1+g.rng.Intn(5))
		e.text = commentTexts[g.rng.Intn(len(commentTexts))]
		e.body = mustJSON(map[string]any{
			"courseId": e.course, "year": e.year, "term": e.term, "grade": e.grade,
			"text": e.text, "rating": e.rating,
		})
	default:
		panic("bench: unknown class " + e.class)
	}
	u, err := url.Parse(e.path)
	if err != nil {
		panic(err) // every path above is built from escaped parts
	}
	e.url = u
	return e
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return b
}

// scripts holds one run's pre-generated requests: one script per load
// client plus the serial trace script.
type scripts struct {
	clients [][]entry
	trace   []entry
}

// generate builds the scripts for one workload from seed alone: the
// same seed gives byte-identical scripts. Students are partitioned
// between the load clients by rank modulo the client count, so both get
// the same popularity mass and no student is ever raced by two clients;
// the trace script is replayed serially after or before the load, so it
// may use every student.
func generate(w world, wl workload, seed int64, clients, perClient, traceLen int) scripts {
	var s scripts
	for c := 0; c < clients; c++ {
		var own []int
		for i := c; i < len(w.students); i += clients {
			own = append(own, i)
		}
		g := newGenerator(w, wl.mix, own, loadYear, seed*7919+int64(c))
		script := make([]entry, perClient)
		for i := range script {
			script[i] = g.next()
		}
		s.clients = append(s.clients, script)
	}
	all := make([]int, len(w.students))
	for i := range all {
		all[i] = i
	}
	g := newGenerator(w, wl.mix, all, traceYear, seed*7919+int64(clients))
	s.trace = make([]entry, traceLen)
	for i := range s.trace {
		s.trace[i] = g.next()
	}
	return s
}

// digest fingerprints every byte that reaches the server plus the
// acting student, for the determinism test.
func digest(script []entry) string {
	h := sha256.New()
	for _, e := range script {
		fmt.Fprintf(h, "%s %d %s %s %s\n", e.class, e.student, e.method, e.path, e.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
