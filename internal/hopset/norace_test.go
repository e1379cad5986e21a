//go:build !race

package hopset

const raceEnabled = false
