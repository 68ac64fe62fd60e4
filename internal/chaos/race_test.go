//go:build race

package chaos

// raceDetector reports whether the test binary was built with -race, which
// changes what sync.Pool — and so every allocation count — does.
const raceDetector = true
