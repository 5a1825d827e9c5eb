//go:build !race

package cts

const raceEnabled = false
