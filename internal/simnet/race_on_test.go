//go:build race

package simnet

// raceEnabled: the race detector adds allocations of its own, so
// allocation budgets cannot be asserted.
const raceEnabled = true
