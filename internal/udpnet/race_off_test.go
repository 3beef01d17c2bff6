//go:build !race

package udpnet

const raceEnabled = false
