package main

import (
	"context"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"abcast/internal/msg"
	"abcast/internal/trace"
)

var spinSink uint64

// spin burns d of CPU time in this package.
func spin(d time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	x := uint64(1)
	for end := threadCPU() + d; threadCPU() < end; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestProfileChargesLabelledWorkToPackage(t *testing.T) {
	prof, err := startCPUProfile("measured")
	if err != nil {
		t.Fatal(err)
	}
	spin(100 * time.Millisecond) // unlabelled: must not count
	pprof.Do(context.Background(), pprof.Labels(profileKey, "measured"), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	byPkg, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	// The package is "main" in the benchmark binary, its import path in a
	// test binary.
	got := byPkg["main"] + byPkg["abcast/perfbench"]
	if got < float64(100*time.Millisecond) || got > float64(400*time.Millisecond) {
		t.Fatalf("labelled CPU charged to package main = %v, want about 300ms of CPU (all packages: %v)", time.Duration(got), byPkg)
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"abcast/internal/core.(*Engine).deliver":    "abcast/internal/core",
		"abcast/internal/wire/binary.(*Reader).U64": "abcast/internal/wire/binary",
		"main.run":            "main",
		"runtime.mallocgc":    "runtime",
		"container/heap.down": "container/heap",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestStageAccumulator(t *testing.T) {
	at := func(ms float64) time.Time { return time.Unix(0, int64(ms*1e6)) }
	id := msg.ID{Sender: 1, Seq: 1}
	evs := []trace.Event{
		{At: at(0), P: 1, Kind: trace.KindABroadcast, ID: id},
		{At: at(0), P: 1, Kind: trace.KindReceive, ID: id},
		{At: at(1), P: 2, Kind: trace.KindReceive, ID: id},
		{At: at(1), P: 1, Kind: trace.KindPropose, K: 1},
		{At: at(3), P: 1, Kind: trace.KindDecide, K: 1},
		{At: at(3), P: 1, Kind: trace.KindOrdered, ID: id},
		{At: at(3), P: 1, Kind: trace.KindADeliver, ID: id},
		{At: at(4), P: 2, Kind: trace.KindOrdered, ID: id},
		{At: at(6), P: 2, Kind: trace.KindADeliver, ID: id},
		{At: at(9), P: 2, Kind: trace.KindADeliver, ID: id}, // a redelivery: ignored
	}
	var s stageAcc
	s.add(evs)
	m := map[string]float64{}
	s.metrics(m, 200*time.Microsecond)
	want := map[string]float64{
		"rbcast.diffusion_ms":   0.5, // (0 + 1) / 2
		"consensus.ordering_ms": 3,   // (3 + 3) / 2
		"core.queue_ms":         1,   // (0 + 2) / 2
		"consensus.decide_ms":   2,
		"live.hop_overshoot_ms": 0.8, // 1 ms to p2 against a 0.2 ms link
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}
