package main

import (
	"errors"
	"math/bits"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

func setAffinity(m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// startOnOneCPU starts cmd confined to the highest-numbered CPU this
// process may use. A forked process inherits the affinity of the thread
// that forks it, so the whole child, every thread it starts and every
// process it starts in turn, runs on that CPU, and its Go runtime sizes
// GOMAXPROCS to 1.
func startOnOneCPU(cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var all cpuMask
	if err := getAffinity(&all); err != nil {
		return err
	}
	cpu := -1
	for w := len(all) - 1; w >= 0 && cpu < 0; w-- {
		if all[w] != 0 {
			cpu = 64*w + 63 - bits.LeadingZeros64(all[w])
		}
	}
	if cpu < 0 {
		return errors.New("no CPU in this process's affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << uint(cpu%64)
	if err := setAffinity(&one); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(&all); err == nil {
		err = rerr
	}
	return err
}

// CPU-time clocks of clock_gettime(2).
const (
	processCPUClock = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of this process
	threadCPUClock  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuTime reads a CPU-time clock. On a virtual machine whose kernel accounts
// steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING), time the host gave to other
// guests is not counted.
func cpuTime(clock int) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
