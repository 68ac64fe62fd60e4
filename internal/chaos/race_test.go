//go:build race

package chaos

// raceDetector reports whether the test binary was built with -race, which
// changes what allocates.
const raceDetector = true
