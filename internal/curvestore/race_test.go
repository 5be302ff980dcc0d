//go:build race

package curvestore

func init() { raceEnabled = true }
