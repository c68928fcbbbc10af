//go:build linux

package cilkview

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// strandClock reads the CPU time the calling OS thread has consumed, in
// nanoseconds. Measure locks its goroutine to one thread for the whole run,
// so the delta between two reads is the CPU time spent on the code between
// them: time the thread sits descheduled while other processes run is not
// charged. Should the clock be unavailable, every read falls back to the
// wall clock, which keeps deltas consistent.
func strandClock() int64 {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return time.Now().UnixNano()
	}
	return ts.Nano()
}
