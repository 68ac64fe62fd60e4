//go:build !race

package scroll

const raceDetector = false
