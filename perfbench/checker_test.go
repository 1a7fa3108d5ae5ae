package main

import (
	"testing"
	"time"

	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/rbcast"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// run3 is a small valid run: six messages, keys 0..5, broadcast by
// processes 1, 2, 3, 1, 2, 3, each process's sequence numbers counting
// from 1.
var run3Senders = []int{1, 2, 3, 1, 2, 3}

func del(key uint64) delivery {
	s := run3Senders[key]
	return delivery{key: key, sender: s, id: msg.ID{Sender: stack.ProcessID(s), Seq: key/3 + 1}, ok: true, at: int64(key)}
}

func seq(keys ...uint64) []delivery {
	out := make([]delivery, len(keys))
	for i, k := range keys {
		out[i] = del(k)
	}
	return out
}

// logs3 builds a three-process run, every process correct, from one
// incarnation log per process.
func logs3(p1, p2, p3 []delivery) []procLog {
	return []procLog{{}, {incs: [][]delivery{p1}, correct: true}, {incs: [][]delivery{p2}, correct: true}, {incs: [][]delivery{p3}, correct: true}}
}

var order = []uint64{2, 0, 1, 5, 3, 4}

func TestCheckerAcceptsAgreeingRun(t *testing.T) {
	r := checkDeliveries(run3Senders, logs3(seq(order...), seq(order...), seq(order...)))
	if r.violations != 0 || r.undelivered != 0 {
		t.Fatalf("valid run flagged: %+v", r)
	}
}

func TestCheckerFlagsReorder(t *testing.T) {
	swapped := []uint64{2, 0, 5, 1, 3, 4}
	r := checkDeliveries(run3Senders, logs3(seq(order...), seq(swapped...), seq(order...)))
	if r.violations == 0 {
		t.Fatal("reordered log not flagged")
	}
}

func TestCheckerFlagsDrop(t *testing.T) {
	// A missing tail is a liveness shortfall: counted, not a violation.
	r := checkDeliveries(run3Senders, logs3(seq(order...), seq(order[:5]...), seq(order...)))
	if r.violations != 0 || r.undelivered != 1 {
		t.Fatalf("dropped tail: violations=%d undelivered=%d, want 0 and 1", r.violations, r.undelivered)
	}
	// A hole in the middle also breaks the common order.
	holed := []uint64{2, 0, 5, 3, 4}
	r = checkDeliveries(run3Senders, logs3(seq(order...), seq(holed...), seq(order...)))
	if r.violations == 0 || r.undelivered != 1 {
		t.Fatalf("hole: violations=%d undelivered=%d, want >0 and 1", r.violations, r.undelivered)
	}
}

func TestCheckerFlagsDuplicate(t *testing.T) {
	dup := []uint64{2, 0, 1, 5, 3, 4, 1}
	r := checkDeliveries(run3Senders, logs3(seq(order...), seq(dup...), seq(order...)))
	if r.violations == 0 {
		t.Fatal("duplicate delivery not flagged")
	}
}

func TestCheckerFlagsCorruption(t *testing.T) {
	b := makePayload(7, 3, 1)
	b[40] ^= 1
	_, _, ok := readPayload(b)
	if ok {
		t.Fatal("checksum accepted a corrupted payload")
	}
	bad := seq(order...)
	bad[2].ok = ok
	r := checkDeliveries(run3Senders, logs3(seq(order...), bad, seq(order...)))
	if r.violations == 0 {
		t.Fatal("corrupted payload not flagged")
	}

	// A payload delivered under another message's identifier.
	swapped := seq(order...)
	swapped[1].id = del(4).id
	r = checkDeliveries(run3Senders, logs3(seq(order...), swapped, seq(order...)))
	if r.violations == 0 {
		t.Fatal("payload under a foreign identifier not flagged")
	}

	// A message nobody broadcast.
	forged := append(seq(order...), delivery{key: 9, sender: 1, id: msg.ID{Sender: 1, Seq: 9}, ok: true})
	r = checkDeliveries(run3Senders, logs3(forged, seq(order...), seq(order...)))
	if r.violations == 0 {
		t.Fatal("delivery of a message never broadcast not flagged")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for key := uint64(0); key < 100; key++ {
		k, s, ok := readPayload(makePayload(11, key, int(key%3)+1))
		if !ok || k != key || s != int(key%3)+1 {
			t.Fatalf("payload %d read back as key %d sender %d ok %v", key, k, s, ok)
		}
	}
}

func TestCheckerRestartReplay(t *testing.T) {
	restarted := func(incs ...[]delivery) []procLog {
		l := logs3(seq(order...), seq(order...), nil)
		l[3].incs = incs
		return l
	}
	// The suffix above the checkpoint is redelivered in the same order.
	r := checkDeliveries(run3Senders, restarted(seq(2, 0, 1), seq(0, 1, 5, 3, 4)))
	if r.violations != 0 || r.undelivered != 0 {
		t.Fatalf("valid replay flagged: %+v", r)
	}
	// A restart from the exact frontier redelivers nothing.
	r = checkDeliveries(run3Senders, restarted(seq(2, 0, 1), seq(5, 3, 4)))
	if r.violations != 0 || r.undelivered != 0 {
		t.Fatalf("frontier restart flagged: %+v", r)
	}
	// A replay in another order is a violation.
	r = checkDeliveries(run3Senders, restarted(seq(2, 0, 1), seq(1, 0, 5, 3, 4)))
	if r.violations == 0 {
		t.Fatal("reordered replay not flagged")
	}
	// So is a duplicate inside one incarnation.
	r = checkDeliveries(run3Senders, restarted(seq(2, 0, 1, 0), seq(5, 3, 4)))
	if r.violations == 0 {
		t.Fatal("duplicate within an incarnation not flagged")
	}
}

// runCrashScenario replays the crash scenario of the core package's No-loss
// checker test on variant v: process 2's diffusion traffic is delayed by an
// hour, so only it holds its own message, and it crashes at 1 s. It returns
// the checker's report on the deliveries.
func runCrashScenario(t *testing.T, v core.Variant) report {
	t.Helper()
	params := netmodel.Setup1()
	params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
		if from == 2 && env.Proto == stack.ProtoRB {
			return time.Hour
		}
		return params.Latency
	}
	w := simnet.NewWorld(3, params, 17)
	logs := make([]procLog, 4)
	engines := make([]*core.Engine, 4)
	for i := 1; i <= 3; i++ {
		i := i
		logs[i].correct = i != 2
		node := w.Node(stack.ProcessID(i))
		eng, err := core.New(node, core.Config{
			Variant:  v,
			RB:       rbcast.KindEager,
			Detector: fd.NewHeartbeat(node, fd.DefaultConfig()),
			Deliver: func(app *msg.App) {
				key, sender, ok := readPayload(app.Payload)
				logs[i].deliver(delivery{key: key, sender: sender, id: app.ID, ok: ok})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	var senders []int
	ab := func(p int, at time.Duration) {
		payload := makePayload(17, uint64(len(senders)), p)
		senders = append(senders, p)
		w.After(stack.ProcessID(p), at, func() { engines[p].ABroadcast(payload) })
	}
	ab(1, time.Millisecond)
	ab(3, time.Millisecond)
	ab(2, 50*time.Millisecond) // the poisoned broadcast
	ab(1, 51*time.Millisecond)
	ab(3, 51*time.Millisecond)
	w.After(1, time.Second, func() { w.Crash(2, simnet.DropInFlight) })
	w.RunFor(10 * time.Second)
	return checkDeliveries(senders, logs)
}

// TestCheckerFlagsFaultyStack is the positive control: consensus directly
// on identifiers (FaultyConsensusOnIDs) decides an identifier only the
// crashed process held, so the correct processes block on it and never
// deliver later messages of correct senders. The same schedule on the
// indirect-consensus stack is clean.
func TestCheckerFlagsFaultyStack(t *testing.T) {
	r := runCrashScenario(t, core.VariantFaultyIDs)
	if r.undelivered == 0 && r.violations == 0 {
		t.Fatal("the faulty stack's run was not flagged")
	}
	t.Logf("faulty stack: %d undelivered, %d violations", r.undelivered, r.violations)
	r = runCrashScenario(t, core.VariantIndirectCT)
	if r.undelivered != 0 || r.violations != 0 {
		t.Fatalf("indirect consensus flagged: %d undelivered, %d violations %v", r.undelivered, r.violations, r.examples)
	}
}
