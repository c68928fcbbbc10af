//go:build !linux

package cilkview

import "time"

var clockBase = time.Now()

// strandClock reads the monotonic wall clock in nanoseconds. Without a
// per-thread CPU clock, Measure charges a strand any time its thread spent
// descheduled as well.
func strandClock() int64 { return int64(time.Since(clockBase)) }
