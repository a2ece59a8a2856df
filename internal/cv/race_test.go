//go:build race

package cv

func init() { raceEnabled = true }
