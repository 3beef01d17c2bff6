//go:build race

package wal

// raceEnabled: the race detector adds allocations of its own, so
// allocation budgets cannot be asserted.
const raceEnabled = true
