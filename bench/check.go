package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
)

// Two responses carry bytes that do not depend on the request or on the
// data the benchmark controls, so equality ignores them:
//
//   - the feed reports how old its snapshot is and whether this read
//     built it, which depends on timing;
//   - the plan page ends with the student's prerequisite issues, and
//     datagen's genPrereqs draws the Prereqs table while ranging over a
//     Go map, so that one table differs between any two processes (and
//     between two sites of one process) built from the same seed.
var (
	feedAge     = regexp.MustCompile(`"ageMs":\d+`)
	feedServed  = regexp.MustCompile(`"served":"[a-z]+"`)
	planPrereqs = regexp.MustCompile(`⚠ prerequisite issues:[^"]*`)
)

// sameOutput reports whether two responses to one request agree. A
// feed served bounded-stale shows the ranking as of an older write, by
// design; which write depends on when the background refresh ran, so
// such a response is comparable with nothing.
func sameOutput(class string, a, b []byte) bool {
	stale := []byte(`"served":"stale"`)
	if class == clFeed && (bytes.Contains(a, stale) || bytes.Contains(b, stale)) {
		return true
	}
	return bytes.Equal(mask(class, a), mask(class, b))
}

func mask(class string, body []byte) []byte {
	switch class {
	case clFeed:
		body = feedAge.ReplaceAll(body, []byte(`"ageMs":0`))
		return feedServed.ReplaceAll(body, []byte(`"served":""`))
	case clPlan:
		return planPrereqs.ReplaceAll(body, nil)
	}
	return body
}

// checkOutputs is the correctness gate, run on the freshly started
// server before any scripted write:
//
//   - one request of every read class in the mix must return, byte for
//     byte, what the in-process twin returns for it;
//   - q=american must find exactly Manifest.ThemedCourses courses, the
//     Figure 3 calibration;
//   - on mixes that rate, a POST /api/rate by a student who has not
//     rated the course must raise the course page's raters by one.
//
// Writes made here are applied to every twin as well, so the twins
// stay identical to the server.
func checkOutputs(p *serverProc, wl workload, w world, script []entry, twins ...*twin) error {
	ref := twins[0]
	seen := map[string]bool{}
	for i := range script {
		e := script[i]
		if seen[e.class] || isWrite(e.class) {
			continue
		}
		seen[e.class] = true
		code, got, err := p.do(e.method, e.path, p.tokens[e.student], e.body)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("output check: %s %s: status %d, %v", e.method, e.path, code, err)
		}
		var want []byte
		for _, t := range twins {
			if code, want = t.serve(e); code != http.StatusOK {
				return fmt.Errorf("output check: twin answered %s %s with status %d", e.method, e.path, code)
			}
		}
		if !sameOutput(e.class, got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			from := max(0, at-80)
			return fmt.Errorf("output check: %s %s differs from the in-process twin at byte %d\nserver: …%.200s\ntwin:   …%.200s",
				e.method, e.path, at, got[from:], want[from:])
		}
	}
	for _, s := range wl.mix {
		if !isWrite(s.class) && !seen[s.class] {
			return fmt.Errorf("output check: no %s request in the first %d script entries", s.class, len(script))
		}
	}

	code, body, err := p.do("GET", "/api/search?q=american", p.tokens[0], nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("output check: q=american: status %d, %v", code, err)
	}
	var found struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(body, &found); err != nil {
		return fmt.Errorf("output check: q=american: %w", err)
	}
	if found.Total != ref.man.ThemedCourses {
		return fmt.Errorf("output check: q=american found %d courses, the manifest planted %d", found.Total, ref.man.ThemedCourses)
	}

	for _, s := range wl.mix {
		if s.class == clRate {
			return checkRate(p, w, twins)
		}
	}
	return nil
}

// checkRate posts one rating the student has not given before and
// watches the course page count it.
func checkRate(p *serverProc, w world, twins []*twin) error {
	ratings := twins[0].site.DB.MustTable("Ratings")
	const who = 0
	course := int64(-1)
	for _, id := range w.courses {
		if _, rated := ratings.Get(w.students[who].id, id); !rated {
			course = id
			break
		}
	}
	if course < 0 {
		return fmt.Errorf("output check: student %s has rated every course", w.students[who].username)
	}
	page := "/api/course/" + strconv.FormatInt(course, 10)
	raters := func() (int, error) {
		code, body, err := p.do("GET", page, p.tokens[who], nil)
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("output check: %s: status %d, %v", page, code, err)
		}
		var c struct {
			Raters int `json:"raters"`
		}
		err = json.Unmarshal(body, &c)
		return c.Raters, err
	}
	before, err := raters()
	if err != nil {
		return err
	}
	rate := entry{class: clRate, student: who, method: "POST", path: "/api/rate", course: course, rating: 4,
		body: mustJSON(map[string]any{"courseId": course, "rating": 4})}
	code, _, err := p.do(rate.method, rate.path, p.tokens[who], rate.body)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("output check: POST /api/rate: status %d, %v", code, err)
	}
	for _, t := range twins {
		if code, body := t.serve(rate); code != http.StatusOK {
			return fmt.Errorf("output check: twin refused the rating: status %d, %s", code, body)
		}
	}
	after, err := raters()
	if err != nil {
		return err
	}
	if after != before+1 {
		return fmt.Errorf("output check: course %d showed %d raters before a new rating and %d after", course, before, after)
	}
	return nil
}
