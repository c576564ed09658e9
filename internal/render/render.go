// Package render produces the text renderings of CourseRank's screens:
// the course descriptor page and the multi-year planner of Figure 1,
// plus clouds, search results and tabular output for the experiment
// harness. Renderings are deterministic so experiments can assert on
// them.
package render

import (
	"fmt"
	"sort"
	"strings"

	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/core"
	"courserank/internal/planner"
	"courserank/internal/search"
)

// line draws a horizontal rule.
func line(w int) string { return strings.Repeat("─", w) }

// CoursePage renders the Figure 1 (left) course descriptor: title,
// description, rating summary, grade distribution (honoring privacy),
// top comments, textbooks, and who is planning to take it.
func CoursePage(s *core.Site, courseID int64) (string, error) {
	c, ok := s.Catalog.Course(courseID)
	if !ok {
		return "", fmt.Errorf("render: no course %d", courseID)
	}
	var b strings.Builder
	dep, _ := s.Catalog.Department(c.DepID)
	fmt.Fprintf(&b, "%s\n%s: %s (%d units) — %s\n%s\n", line(72), c.Code(), c.Title, c.Units, dep.Name, line(72))
	fmt.Fprintf(&b, "%s\n\n", wrap(c.Description, 72))

	if notes := s.Comments.Notes(c.ID); len(notes) > 0 {
		b.WriteString("Instructor notes:\n")
		for _, note := range notes {
			who := "instructor"
			if in, ok := s.Catalog.Instructor(note.InstructorID); ok {
				who = in.Name
			}
			fmt.Fprintf(&b, "  %s: %s\n", who, wrap(note.Text, 60))
		}
		b.WriteString("\n")
	}

	avg, n := s.Comments.AvgRating(c.ID)
	if n > 0 {
		fmt.Fprintf(&b, "Student rating: %.1f / 5 (%d ratings)  %s\n", avg, n, stars(avg))
	} else {
		b.WriteString("Student rating: not yet rated\n")
	}

	hist := s.Stats.RatingHistogram(c.ID)
	maxH := 1
	for _, h := range hist {
		if h > maxH {
			maxH = h
		}
	}
	for i := 4; i >= 0; i-- {
		fmt.Fprintf(&b, "  %d★ %-30s %d\n", i+1, strings.Repeat("█", hist[i]*30/maxH), hist[i])
	}

	official := s.Stats.OfficialDistribution(c.ID)
	b.WriteString("\nOfficial grade distribution")
	if official.Suppressed {
		b.WriteString(": (withheld — small class or school has not agreed to disclose)\n")
	} else {
		b.WriteString(":\n")
		for _, g := range catalog.LetterGrades {
			if cnt := official.Counts[g]; cnt > 0 {
				fmt.Fprintf(&b, "  %-2s %-40s %d\n", g, strings.Repeat("▒", cnt*40/official.Total+1), cnt)
			}
		}
	}

	if books := s.Catalog.Textbooks(c.ID); len(books) > 0 {
		b.WriteString("\nTextbooks (volunteer-reported):\n")
		for _, bk := range books {
			fmt.Fprintf(&b, "  • %s — %s\n", bk.Title, bk.Author)
		}
	}

	if comments, total := s.Comments.TopByCourse(c.ID, 3); total > 0 {
		b.WriteString("\nComments (best first):\n")
		for _, cm := range comments {
			r := ""
			if cm.Rating > 0 {
				r = fmt.Sprintf(" [%0.f★]", cm.Rating)
			}
			fmt.Fprintf(&b, "  %q%s\n", clip(cm.Text, 66), r)
		}
		if total > 3 {
			fmt.Fprintf(&b, "  … and %d more\n", total-3)
		}
	}

	if planning := s.Planner.PlannedBy(c.ID, func(su int64) bool {
		u, ok := s.Community.User(su)
		return ok && u.SharePlans
	}); len(planning) > 0 {
		names := make([]string, 0, 5)
		for _, su := range planning {
			if u, ok := s.Community.User(su); ok {
				names = append(names, u.Name)
			}
			if len(names) == 5 {
				break
			}
		}
		fmt.Fprintf(&b, "\nPlanning to take it: %s", strings.Join(names, ", "))
		if len(planning) > 5 {
			fmt.Fprintf(&b, " and %d others", len(planning)-5)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Plan renders the Figure 1 (right) multi-year planner grid with
// per-quarter unit loads and GPAs plus the cumulative GPA. It reads the
// student's record once: the conflicts and the prerequisite check come
// from the plan's entries.
func Plan(s *core.Site, suID int64) string {
	p := s.Planner.Plan(suID)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nFour-Year Plan — student %d\n%s\n", line(72), suID, line(72))
	for _, q := range p.Quarters {
		gpa := "      "
		if q.HasGPA {
			gpa = fmt.Sprintf("%.2f  ", q.GPA)
		}
		fmt.Fprintf(&b, "%-6s %d  (%2d units)  GPA %s", q.Term, q.Year, q.Units, gpa)
		var cells []string
		for _, e := range q.Entries {
			c, _ := s.Catalog.Course(e.CourseID)
			cell := c.Code()
			switch {
			case e.Planned:
				cell += " (planned)"
			case e.Grade != "":
				cell += " " + string(e.Grade)
			}
			cells = append(cells, cell)
		}
		b.WriteString("│ " + strings.Join(cells, " · ") + "\n")
	}
	fmt.Fprintf(&b, "%s\nCumulative GPA %.2f over %d graded units\n", line(72), p.GPA, p.Units)
	if conflicts := quarterConflicts(s, p); len(conflicts) > 0 {
		b.WriteString("⚠ schedule conflicts:\n")
		for _, c := range conflicts {
			b.WriteString("  " + c + "\n")
		}
	}
	if v := s.Planner.PlanPrereqs(p); len(v) > 0 {
		b.WriteString("⚠ prerequisite issues:\n")
		for _, pv := range v {
			a, _ := s.Catalog.Course(pv.CourseID)
			r, _ := s.Catalog.Course(pv.RequiresID)
			fmt.Fprintf(&b, "  %s needs %s first (%s %d)\n", a.Code(), r.Code(), pv.Term, pv.Year)
		}
	}
	return b.String()
}

func quarterConflicts(s *core.Site, p planner.FourYearPlan) []string {
	var out []string
	for _, q := range p.Quarters {
		for _, c := range s.Planner.QuarterConflicts(q) {
			a, _ := s.Catalog.Course(c.A.CourseID)
			bb, _ := s.Catalog.Course(c.B.CourseID)
			out = append(out, fmt.Sprintf("%s %d: %s overlaps %s", q.Term, q.Year, a.Code(), bb.Code()))
		}
	}
	return out
}

// Cloud renders a data cloud the way Figures 3 and 4 present them:
// alphabetical terms, size encoded as surrounding markers (more ▲ =
// bigger font).
func Cloud(c *cloud.Cloud) string {
	if len(c.Terms) == 0 {
		return "(empty cloud)"
	}
	parts := make([]string, 0, len(c.Terms))
	for _, t := range c.Alphabetical() {
		switch {
		case t.Weight >= 5:
			parts = append(parts, strings.ToUpper(t.Text))
		case t.Weight >= 4:
			parts = append(parts, titleCase(t.Text))
		default:
			parts = append(parts, t.Text)
		}
	}
	return wrap(strings.Join(parts, "   "), 72)
}

// SearchResults renders the Figure 3/4 result list header plus the top
// hits with their codes and titles.
func SearchResults(s *core.Site, res *search.Results, top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d courses returned for this search (query: %s)\n", res.Total(), res.Query.String())
	for i, h := range res.Top(top) {
		c, ok := s.Catalog.Course(h.DocID)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%2d. %-10s %s\n", i+1, c.Code(), clip(c.Title, 56))
	}
	return b.String()
}

// Table renders rows as a fixed-width table with a header rule.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(line(total-2) + "\n")
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// titleCase upper-cases the first letter of each ASCII word.
func titleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if w != "" && w[0] >= 'a' && w[0] <= 'z' {
			words[i] = string(w[0]-32) + w[1:]
		}
	}
	return strings.Join(words, " ")
}

// stars draws a 5-star meter.
func stars(v float64) string {
	full := int(v + 0.5)
	if full > 5 {
		full = 5
	}
	return strings.Repeat("★", full) + strings.Repeat("☆", 5-full)
}

// clip truncates s to n runes with an ellipsis.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}

// wrap folds text at the given width on word boundaries.
func wrap(s string, width int) string {
	words := strings.Fields(s)
	if len(words) == 0 {
		return ""
	}
	var b strings.Builder
	lineLen := 0
	for i, w := range words {
		if i > 0 {
			if lineLen+1+len(w) > width {
				b.WriteString("\n")
				lineLen = 0
			} else {
				b.WriteString(" ")
				lineLen++
			}
		}
		b.WriteString(w)
		lineLen += len(w)
	}
	return b.String()
}

// Sorted returns map keys in sorted order; a small helper for
// deterministic experiment output.
func Sorted[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}
