//go:build !race

package symex

const raceEnabled = false
