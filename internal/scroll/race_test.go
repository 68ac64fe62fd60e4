//go:build race

package scroll

// raceDetector reports whether the test binary was built with -race, which
// instruments allocations and so changes what the allocation ceilings see.
const raceDetector = true
