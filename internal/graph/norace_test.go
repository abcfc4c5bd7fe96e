//go:build !race

package graph_test

// raceEnabled is true under the race detector (see race_test.go).
const raceEnabled = false
