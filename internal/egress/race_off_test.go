//go:build !race

package egress

const raceEnabled = false
