//go:build race

package udpnet

// raceEnabled: the race detector adds allocations of its own to the
// receive path, so allocation budgets cannot be asserted.
const raceEnabled = true
