package core

// The feed's two statements, for the external plan-pinning test.
const (
	FeedBuildSQL = feedBuildSQL
	FeedPatchSQL = feedPatchSQL
)
