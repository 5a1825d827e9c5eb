//go:build !race

package sta

const raceEnabled = false
