//go:build !race

package rl

const raceEnabled = false
