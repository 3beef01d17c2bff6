//go:build race

package message

// raceEnabled: under the race detector sync.Pool drops a share of its Puts
// on purpose, so allocation budgets cannot be asserted.
const raceEnabled = true
