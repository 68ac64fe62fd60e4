//go:build !race

package chaos

const raceDetector = false
