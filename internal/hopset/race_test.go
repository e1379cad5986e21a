//go:build race

package hopset

const raceEnabled = true
