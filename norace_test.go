//go:build !race

package autofj

const raceEnabled = false
