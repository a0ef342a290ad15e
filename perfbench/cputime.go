package main

import (
	"syscall"
	"time"
)

// The benchmark times work in CPU time, not wall time. On a shared virtual
// machine the host deschedules the guest's CPUs (steal time) by an amount
// that changes from minute to minute; the kernel leaves steal out of task
// CPU time, so CPU time measures the simulator and wall time measures the
// neighbours too. Wall time is still printed, and the spans use it.

// procCPU is the CPU time every thread of the process has used.
func procCPU() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name.
const rusageThread = 1

// threadCPU is the CPU time the calling OS thread has used. The caller
// must hold its goroutine on the thread (runtime.LockOSThread) between two
// readings it subtracts.
func threadCPU() time.Duration { return rusage(rusageThread) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // who is one of two constants the kernel always accepts
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamp is one instant in wall time, which places spans on the run's
// timeline, and in process CPU time, which the measurements use.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: procCPU()} }

// cpuSeconds is the process CPU time from s to t.
func (s stamp) cpuSeconds(t stamp) float64 { return (t.cpu - s.cpu).Seconds() }
