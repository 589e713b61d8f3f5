//go:build !race

package ident

const raceEnabled = false
