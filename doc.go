// Package courserank reproduces the system described in "Social
// Systems: Can We Do More Than Just Poke Friends?" (Koutrika et al.,
// CIDR 2009): CourseRank, a closed-community social site for course
// evaluation and planning, together with its two research tools — Data
// Clouds (internal/cloud, internal/search) and FlexRecs
// (internal/flexrecs) — and every supporting subsystem of the paper's
// Figure 2, built on an in-memory relational store (internal/relation)
// with a SQL engine (internal/sqlmini).
//
// Start with internal/core.NewSite, populate it via internal/datagen,
// and see examples/quickstart. The benchmarks in this package
// (bench_test.go, plain go test -bench) time every table and figure of
// the paper plus the engine micro-scenarios; cmd/crbench prints the
// tables and figures; bench/ is the end-to-end HTTP benchmark that
// BENCHMARK.json declares.
package courserank
