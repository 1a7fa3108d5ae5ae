package main

import (
	"container/heap"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalization.
//
// On a shared virtual machine the CPU time one message costs moves by
// ten per cent and more between runs, with the load other tenants put on
// the physical cores. The benchmark therefore times a fixed reference
// computation in the same run — a mix of heap operations, map updates and
// small allocations, like the protocol stack's own — and reports CPU
// figures scaled to a host on which the reference takes refNominal:
//
//	cpu_us_per_msg = measured µs per message × refNominal / measured reference time
//
// A change to the program moves the figure; a host that is slower or
// faster for everybody moves the reference with it and mostly cancels.

// refNominal is the reference computation's CPU time on the host the
// scale is defined for.
const refNominal = 15 * time.Millisecond

// refIters is the reference computation's size.
const refIters = 50_000

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time of the calling OS thread, to the
// nanosecond (getrusage(2) counts it in scheduler ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refSink keeps the reference computation's allocations observable.
var refSink []byte

// refCost runs the reference computation once on a locked OS thread and
// returns the thread's CPU time for it.
func refCost() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	x := uint64(88172645463325252)
	h := &refHeap{}
	m := make(map[uint64]*[4]uint64)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(h, x)
		if i%2 == 0 {
			heap.Pop(h)
		}
		if p, ok := m[x&8191]; ok {
			p[0]++
		} else {
			m[x&8191] = &[4]uint64{x}
		}
		if i%64 == 0 {
			refSink = make([]byte, 256)
		}
	}
	return threadCPU() - start
}

// speedScale converts measured CPU time to the reference host's:
// refNominal over the measured reference time.
func speedScale(ref time.Duration) float64 {
	if ref <= 0 {
		return 1
	}
	return float64(refNominal) / float64(ref)
}
