//go:build race

package dsim_test

// raceDetector reports whether the test binary was built with -race, which
// instruments allocations and so changes what the allocation ceilings see.
const raceDetector = true
