package parallel

import "runtime"

// AtLeastProcs raises runtime.GOMAXPROCS to n when it is lower and returns
// the function that restores the previous setting. The engine clamps a
// query's worker count to GOMAXPROCS (ExecOptions.Normalize, the boundary
// for request-supplied parallelism), so a test or benchmark that runs more
// workers than the machine has cores raises the ceiling for its own
// duration:
//
//	defer parallel.AtLeastProcs(8)()
//
// GOMAXPROCS is process-wide: callers must not run concurrently with code
// that depends on its value.
func AtLeastProcs(n int) (restore func()) {
	prev := runtime.GOMAXPROCS(0)
	if prev >= n {
		return func() {}
	}
	runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}
