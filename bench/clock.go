package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Every time the benchmark reports is the process's CPU time, scaled by
// the host's speed as a yardstick measures it, so that runs of the same
// code agree although the host they share with other tenants does not
// run at one speed:
//
//   - Wall time counts the stretches in which the host runs another
//     tenant on a CPU of this machine (steal time), and made runs of the
//     same code differ by 15-30%. The guest kernel leaves steal time out
//     of a process's CPU time.
//   - CPU time still moves with the host's load, by up to 16% over ten
//     runs, and even a loop that touches no memory ran up to 8% slower
//     from one ten-second stretch to the next. The yardstick, a fixed
//     computation that owes nothing to the simulator, runs in short
//     chunks between the measured ops, and its mean chunk time against
//     yardstickNominal gives the host's speed over the run. A run's
//     times are scaled by that speed, which about halves their spread
//     over runs (see README.md). A chunk is register arithmetic alone:
//     yardsticks that also read memory (pointer chasing through 512 KB
//     or 16 MB, map lookups, small allocations) did no better across the
//     four workloads, and their speed would depend on what the measured
//     code left in the caches and add to the process's memory.
//
// The yardstick and every timer run on one goroutine; the package's
// clock state below is not synchronized.

// Linux's clock_gettime clock ids.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func clockGettime(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// now reads the host wall clock. The benchmark's wall-clock readings
// bound how long a run keeps starting segments, place spans on the
// Chrome trace's timeline and give the wall-clock throughput it prints;
// no reading ever flows back into a simulated quantity.
func now() time.Time {
	//lint:allow determinism: the benchmark measures host time by definition; readings never reach the simulator
	return time.Now()
}

// since is the host wall time elapsed after t.
func since(t time.Time) time.Duration { return now().Sub(t) }

// cpuNow reads the CPU time the process has used so far, user and
// system, on all its threads, to the nanosecond.
func cpuNow() time.Duration { return clockGettime(clockProcessCPUTimeID) }

const (
	// yardstickRounds is the work of one yardstick chunk: rounds of
	// xorshift.
	yardstickRounds = 50_000
	// yardstickNominal is a chunk's CPU time at the host speed the
	// reported times are scaled to: about a chunk's time in a quiet
	// stretch on the 2-vCPU Xeon VM the benchmark was written on.
	yardstickNominal = 110 * time.Microsecond
	// yardstickEvery is how much process CPU time passes between chunks,
	// which costs the measured code nothing and a run about a tenth of
	// its time.
	yardstickEvery = time.Millisecond
)

// yard is what the yardstick has measured in this run, and the CPU and
// wall time its chunks took, which timers leave out.
var yard struct {
	chunks    int
	cpu, wall time.Duration
	last      time.Duration // process CPU time at the last chunk
	x         uint64
}

// resetYardstick starts a run's yardstick afresh.
func resetYardstick() {
	yard.chunks, yard.cpu, yard.wall, yard.last, yard.x = 0, 0, 0, cpuNow(), 88172645463325252
}

// sampleHostSpeed runs a yardstick chunk when yardstickEvery of CPU time
// has passed since the last. Workloads call it between ops.
func sampleHostSpeed() {
	if cpuNow()-yard.last < yardstickEvery {
		return
	}
	runtime.LockOSThread()
	w, c := now(), clockGettime(clockThreadCPUTimeID)
	x := yard.x
	for i := 0; i < yardstickRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	yard.x = x
	yard.cpu += clockGettime(clockThreadCPUTimeID) - c
	yard.wall += since(w)
	runtime.UnlockOSThread()
	yard.chunks++
	yard.last = cpuNow()
}

// hostSpeed is the host's speed over the run so far against the one the
// reported times are scaled to: 1 at yardstickNominal, 0.5 when a chunk
// took twice as long. It is 1 before the first chunk.
func hostSpeed() float64 {
	if yard.chunks == 0 {
		return 1
	}
	return float64(yardstickNominal) * float64(yard.chunks) / float64(yard.cpu)
}

// timer measures one stretch of the benchmark in CPU time and wall time,
// leaving out the yardstick chunks run within it.
type timer struct {
	wall              time.Time
	cpu               time.Duration
	yardCPU, yardWall time.Duration
}

func startTimer() timer {
	w := now()
	return timer{wall: w, cpu: cpuNow(), yardCPU: yard.cpu, yardWall: yard.wall}
}

// lap is what a timer measured.
type lap struct {
	cpu, wall time.Duration
}

func (t timer) lap() lap {
	c := cpuNow()
	return lap{cpu: c - t.cpu - (yard.cpu - t.yardCPU), wall: since(t.wall) - (yard.wall - t.yardWall)}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
