//go:build race

package courserank

func init() { raceDetector = true }
