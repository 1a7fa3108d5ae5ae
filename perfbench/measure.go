package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the user plus system CPU time the benchmark process has
// used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime counters read through runtime/metrics.
const (
	allocsMetric = "/gc/heap/allocs:objects"
	gcCPUMetric  = "/cpu/classes/gc/total:cpu-seconds"
	liveMetric   = "/gc/heap/live:bytes"
)

// hostCounters is a snapshot of the process-wide costs a timed window is
// charged with.
type hostCounters struct {
	cpu    time.Duration
	allocs uint64
	gcCPU  float64 // seconds
}

func readHost() hostCounters {
	s := []metrics.Sample{{Name: allocsMetric}, {Name: gcCPUMetric}}
	metrics.Read(s)
	h := hostCounters{cpu: cpuTime()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[1].Value.Float64()
	}
	return h
}

// hostCost accumulates the costs of one or more timed windows.
type hostCost struct {
	cpu    time.Duration
	allocs uint64
	gcCPU  float64
}

// add charges the window that started at from and ends now.
func (c *hostCost) add(from hostCounters) {
	d := costBetween(from, readHost())
	c.cpu += d.cpu
	c.allocs += d.allocs
	c.gcCPU += d.gcCPU
}

// costBetween is the cost of the window between two snapshots.
func costBetween(from, to hostCounters) hostCost {
	return hostCost{cpu: to.cpu - from.cpu, allocs: to.allocs - from.allocs, gcCPU: to.gcCPU - from.gcCPU}
}

// liveHeapMB collects garbage and returns the live heap in MB: the state
// the program retains at the instant it is called, independent of when the
// runtime last collected on its own. The workloads call it when their load
// has been delivered, where the retained state is largest: delivery logs
// only grow while the load runs.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: liveMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// quantile returns the q-quantile of xs (sorted in place), interpolating
// linearly between closest ranks. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
