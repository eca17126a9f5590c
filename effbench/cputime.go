package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the CPU time, user plus system, that process pid
// has used so far; pid 0 means this process. The benchmark's timings are
// CPU times rather than wall-clock times: on a shared host the
// hypervisor takes the machine's CPUs away for a share of the time that
// changes from minute to minute (steal time), and the kernel leaves that
// time out of a process's CPU clock while a wall clock keeps counting.
func processCPU(pid int) (time.Duration, error) {
	clock := 2 // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = (^pid)<<3 | 2 // the CPU clock of another process (clock_getcpuclockid)
	}
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// selfCPU is processCPU(0); reading its own clock cannot fail.
func selfCPU() time.Duration {
	d, _ := processCPU(0)
	return d
}
