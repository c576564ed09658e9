package main

// The benchmark's fixed vocabulary: request classes, the four workload
// mixes, and the names of every metric. Later issues cite these names,
// so changing one is a benchmark change, not a refactor.

// Request classes. A class is one URL shape; every scripted request
// belongs to exactly one.
const (
	clSearch       = "search"
	clSearchRefine = "search-refine"
	clCourse       = "course"
	clPlan         = "plan"
	clRelated      = "related-courses"
	clCF           = "cf-courses"
	clGradePeers   = "grade-peers"
	clHybrid       = "hybrid"
	clDeptPopular  = "department-popular"
	clRated        = "rated-courses"
	clTopRated     = "top-rated"
	clFeed         = "feed"
	clPoints       = "points"
	clRate         = "rate"
	clComment      = "comment"
	clReview       = "review"
)

// classes lists every request class, in the order the per-class
// metrics are printed.
var classes = []string{
	clSearch, clSearchRefine, clCourse, clPlan,
	clRelated, clCF, clGradePeers, clHybrid, clDeptPopular, clRated, clTopRated,
	clFeed, clPoints, clRate, clComment, clReview,
}

// share is one class's part of a workload mix, in percent.
type share struct {
	class string
	pct   int
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name    string
	why     string
	durable bool // server runs -durable <fresh dir> -fsync sync
	shards  int  // server runs -shards N; 0 = monolithic
	mix     []share
	// headline names the classes whose latencies p50_ms/p95_ms report:
	// one homogeneous request class, never the whole mix.
	headline []string
}

var workloads = []workload{
	{
		name: "browse",
		why:  "search + data cloud + course pages: loads search/textindex/cloud/render and server JSON, bypasses flexrecs/sqlmini/wal/shard",
		mix: []share{
			{clSearch, 30}, {clSearchRefine, 10}, {clCourse, 40}, {clPlan, 20},
		},
		headline: []string{clSearch},
	},
	{
		name: "recommend",
		why:  "read-only FlexRecs strategies on a warm plan cache and warm matviews: loads flexrecs/sqlmini/relation, bypasses search and every write path",
		mix: []share{
			{clRelated, 20}, {clCF, 20}, {clGradePeers, 10}, {clHybrid, 10},
			{clDeptPopular, 15}, {clRated, 15}, {clFeed, 10},
		},
		headline: []string{clCF},
	},
	{
		name:    "contribute",
		why:     "50% rate/comment writes on a durable fsync=sync server beside reads of what they invalidate: loads wal/relation checkpoints/matview rebuilds, bypasses search and shard",
		durable: true,
		mix: []share{
			{clRate, 30}, {clComment, 20},
			{clFeed, 15}, {clDeptPopular, 10}, {clCourse, 15}, {clPoints, 10},
		},
		headline: []string{clRate, clComment},
	},
	{
		name:   "campus",
		why:    "2-shard server, 90% reads through the shard backend and 10% writes incl. the review transaction: loads shard and relation tx, bypasses search and wal",
		shards: 2,
		mix: []share{
			{clCF, 20}, {clTopRated, 15}, {clDeptPopular, 15}, {clGradePeers, 10},
			{clRated, 15}, {clFeed, 15},
			{clRate, 4}, {clComment, 3}, {clReview, 3},
		},
		headline: []string{clCF},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) isHeadline(class string) bool {
	for _, h := range w.headline {
		if h == class {
			return true
		}
	}
	return false
}

func isWrite(class string) bool {
	return class == clRate || class == clComment || class == clReview
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order so printed tables read the same way
// every run.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name string, v float64, unit string) {
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

func (ms *metrics) drop(name string) {
	delete(ms.m, name)
	for i, n := range ms.names {
		if n == name {
			ms.names = append(ms.names[:i], ms.names[i+1:]...)
			return
		}
	}
}

// demoted names the end-to-end metrics of ISSUE.md that carry no bound:
// a metric whose A/A range (baseline/aa.json) exceeds 25 % on any
// workload cannot tell a regression from the host, so it is reported as
// a per-layer metric, from the traced run's load window. On the sizing
// box that is every metric that is a time: the host's speed moves by
// 30 % for minutes on end (README, "A/A results"). Compare them with
// interleaved pairs of runs, not against a bound.
var demoted = []string{"throughput_rps", "p50_ms", "p95_ms", "cpu_ms_per_req"}

// strategies are the eight registered FlexRecs strategies the
// flexrecs.run_us.<strategy> probes time.
var strategies = []string{
	"related-courses", "rated-courses", "top-rated", "contemporary-courses",
	"cf-courses", "grade-peers", "department-popular", "hybrid",
}

// searchTerms is the fixed query vocabulary, most popular first
// (Zipf(1.2) over the list index). "american" is the calibrated broad
// term of Figures 3/4 (Manifest.ThemedCourses hits); the rest are
// theme co-words, science title nouns, department names and a few
// single-course terms. Terms matching more than ~120 courses at small
// scale ("literature", "theory", …) are left out on purpose: one such
// search costs 20–76 ms, so a handful of draws would decide a window's
// throughput.
var searchTerms = []string{
	"american", "computer science", "economics", "jazz", "calculus",
	"culture", "statistics", "music", "immigration", "genetics",
	"society", "probability", "democracy", "climate", "slavery",
	"ecology", "cinema", "evolution", "identity", "neuroscience",
	"frontier", "mechanics", "revolution", "topology", "labor",
	"religion", "press", "african american", "latin american", "indians",
	"civil rights", "greek", "java", "operating systems", "physics",
	"chemistry", "biology", "mathematics", "psychology", "sociology",
}

// refinePairs are (query, clicked cloud term) pairs for the Figure 3 →
// Figure 4 interaction, most popular first.
var refinePairs = [][2]string{
	{"american", "african american"}, {"american", "latin american"},
	{"american", "history"}, {"american", "politics"}, {"american", "indians"},
	{"american", "jazz"}, {"american", "immigration"}, {"american", "civil rights"},
	{"computer science", "programming"}, {"economics", "markets"},
}

// commentTexts are the bodies of scripted comments; free of the theme
// tokens, like datagen's own comment vocabulary.
var commentTexts = []string{
	"solid introduction and well organized", "tough but rewarding, start the sets early",
	"the lectures were excellent", "grading felt fair", "readings were heavy but useful",
	"would take it again", "sections were the best part", "exams were reasonable",
}
