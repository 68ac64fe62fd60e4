//go:build !race

package dsim_test

const raceDetector = false
