//go:build linux

package obs

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

// threadCPU returns the calling OS thread's consumed CPU time
// (user + system) in nanoseconds, from the thread's CPU-time clock.
// Only attributable to the caller's work while the goroutine is locked
// to its thread (Accountant.Begin does that). The clock is read at
// nanosecond resolution: getrusage(RUSAGE_THREAD) advances only at
// scheduler ticks on some kernels, so it read most sub-millisecond
// sections as zero.
func threadCPU() int64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return ts.Nano()
}

// HaveThreadCPU reports whether per-thread CPU clocks are available on
// this platform; when false the accountant's cpu_seconds degrade to
// wall time.
const HaveThreadCPU = true
