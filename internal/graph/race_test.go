//go:build race

package graph_test

// raceEnabled is true under the race detector, which allocates on its
// own account around goroutine starts and synchronization, so
// allocation gates that read the process's malloc count skip.
const raceEnabled = true
