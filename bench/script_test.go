package main

import (
	"math"
	"testing"
)

// testWorld is a small fixed deployment: the generator needs no site.
func testWorld() world {
	var w world
	for i := 0; i < 90; i++ {
		w.students = append(w.students, student{username: "s", id: int64(100 + i)})
	}
	deps := []string{"CS", "EE", "HISTORY", "MATH"}
	for i := 0; i < 200; i++ {
		w.courses = append(w.courses, int64(1+i))
		w.courseDep = append(w.courseDep, deps[i%len(deps)])
	}
	w.titles = []string{"Introduction to Programming", "Operating Systems"}
	return w
}

func TestScriptsAreDeterministic(t *testing.T) {
	w := testWorld()
	for _, wl := range workloads {
		a := generate(w, wl, 7, 2, 4000, 500)
		b := generate(w, wl, 7, 2, 4000, 500)
		c := generate(w, wl, 8, 2, 4000, 500)
		for i := range a.clients {
			if digest(a.clients[i]) != digest(b.clients[i]) {
				t.Errorf("%s: client %d script differs between two runs of seed 7", wl.name, i)
			}
			if digest(a.clients[i]) == digest(c.clients[i]) {
				t.Errorf("%s: client %d script is the same for seeds 7 and 8", wl.name, i)
			}
		}
		if digest(a.trace) != digest(b.trace) {
			t.Errorf("%s: trace script differs between two runs of seed 7", wl.name)
		}
		if digest(a.clients[0]) == digest(a.clients[1]) {
			t.Errorf("%s: both clients replay the same script", wl.name)
		}
	}
}

func TestMixSharesAndValidity(t *testing.T) {
	w := testWorld()
	const clients, n = 2, 30000
	for _, wl := range workloads {
		total := 0
		for _, s := range wl.mix {
			total += s.pct
		}
		if total != 100 {
			t.Fatalf("%s: mix sums to %d%%", wl.name, total)
		}
		s := generate(w, wl, 3, clients, n, 1000)
		owner := map[int]int{}
		type tuple struct {
			student      int
			course, year int64
			term         string
		}
		reviews := map[tuple]bool{}
		for c, script := range s.clients {
			count := map[string]int{}
			for _, e := range script {
				count[e.class]++
				if prev, ok := owner[e.student]; ok && prev != c {
					t.Fatalf("%s: student %d is used by clients %d and %d", wl.name, e.student, prev, c)
				}
				owner[e.student] = c
				if e.class == clReview {
					key := tuple{e.student, e.course, e.year, e.term}
					if reviews[key] {
						t.Fatalf("%s: review tuple %v scripted twice", wl.name, key)
					}
					reviews[key] = true
				}
				if isWrite(e.class) && e.class != clRate && e.year != loadYear {
					t.Fatalf("%s: scripted %s in year %d, want %d", wl.name, e.class, e.year, loadYear)
				}
			}
			for _, sh := range wl.mix {
				got := 100 * float64(count[sh.class]) / n
				if math.Abs(got-float64(sh.pct)) > 1 {
					t.Errorf("%s client %d: %s is %.2f%% of the script, want %d%% ± 1", wl.name, c, sh.class, got, sh.pct)
				}
			}
		}
		for _, e := range s.trace {
			if e.class == clReview && e.year != traceYear {
				t.Fatalf("%s: trace review in year %d, want %d", wl.name, e.year, traceYear)
			}
		}
		headline := false
		for _, sh := range wl.mix {
			headline = headline || wl.isHeadline(sh.class)
		}
		if !headline {
			t.Errorf("%s: headline class %v is not in the mix", wl.name, wl.headline)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three values = %v, %v; want 1, 4", q1, q3)
	}
}
