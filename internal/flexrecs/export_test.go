package flexrecs

// RunReference runs a workflow through the materializing reference
// (engine_test.go), for the package's external tests.
func RunReference(e *Engine, w *Step) (*Relation, error) { return refRun(e, w) }
