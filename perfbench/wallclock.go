package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"abcast/internal/msg"
)

// wallSpec is the make-up of a wall-clock workload: an open-loop schedule
// at a fixed rate, each message broadcast by a sender drawn from the seed.
type wallSpec struct {
	rate   float64 // aggregate offered load, msgs/s
	setups int     // groups set up per run; setup_s is their median
}

const (
	// drainWall bounds the wait for full delivery after the load ends.
	drainWall = 10 * time.Second
	// warmWall bounds the wait for the warm-up messages.
	warmWall = 10 * time.Second
)

// group is a running n-process group under test, as the wall-clock
// workloads see it.
type group interface {
	// broadcast hands payload to process p for atomic broadcast.
	broadcast(p int, payload []byte)
	// close stops the group and waits for its goroutines.
	close()
}

// wallRun is one wall-clock group lifecycle: the generator's schedule and
// everything each process delivered.
type wallRun struct {
	n       int
	seed    int64
	t0      time.Time // origin of every recorded instant
	loadAt  int64     // ns after t0 the open-loop schedule starts
	senders []int
	due     []int64 // ns after t0; -1 for warm-up messages
	logs    []procLog
	counts  []atomic.Int64 // deliveries per process, for the drain wait
	warm    int            // keys [0, warm) are warm-up messages
	lag     time.Duration  // total lateness of the generator
	refs    []float64      // reference computation times (ns), before and after the load
	// marks[i] is the process's costs at the start of window i; the last
	// entry is taken when the load has drained.
	marks []hostCounters
}

func newWallRun(n int, seed int64) *wallRun {
	w := &wallRun{n: n, seed: seed, logs: make([]procLog, n+1), counts: make([]atomic.Int64, n+1)}
	for p := 1; p <= n; p++ {
		w.logs[p].correct = true
	}
	return w
}

// onDeliver records a delivery at process p. It runs on p's event loop, so
// each process's log has a single writer.
func (w *wallRun) onDeliver(p int, id msg.ID, payload []byte) {
	key, sender, ok := readPayload(payload)
	w.logs[p].deliver(delivery{key: key, sender: sender, id: id, ok: ok, at: int64(time.Since(w.t0))})
	w.counts[p].Add(1)
}

// waitAll waits until every process has delivered want messages.
func (w *wallRun) waitAll(want int, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		done := true
		for p := 1; p <= w.n; p++ {
			if w.counts[p].Load() < int64(want) {
				done = false
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// windowLen is the length of a wall-clock measurement window.
const windowLen = time.Second

// drive warms the group up with one message per process, then offers the
// open-loop load for dur and waits for it to drain. Latency is timed from
// each message's due time, so a stalled generator or group charges the
// wait to every message due meanwhile. The generator samples the process's
// costs at every window boundary.
func (w *wallRun) drive(g group, spec wallSpec, dur time.Duration) {
	w.t0 = time.Now()
	for p := 1; p <= w.n; p++ {
		key := len(w.senders)
		w.senders = append(w.senders, p)
		w.due = append(w.due, -1)
		g.broadcast(p, makePayload(w.seed, uint64(key), p))
	}
	w.warm = w.n
	w.waitAll(w.warm, warmWall)

	rng := rand.New(rand.NewSource(w.seed))
	count := int(spec.rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / spec.rate)
	payloads := make([][]byte, count)
	for i := range payloads {
		key := len(w.senders)
		p := 1 + rng.Intn(w.n)
		w.senders = append(w.senders, p)
		w.due = append(w.due, 0)
		payloads[i] = makePayload(w.seed, uint64(key), p)
	}

	w.timeReference()
	w.marks = append(w.marks[:0], readHost())
	start := time.Now()
	w.loadAt = int64(start.Sub(w.t0))
	for i := 0; i < count; i++ {
		key := w.warm + i
		due := time.Duration(i) * interval
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if int(due/windowLen) == len(w.marks) {
			w.marks = append(w.marks, readHost())
		}
		w.lag += time.Since(start) - due
		w.due[key] = w.loadAt + int64(due)
		g.broadcast(w.senders[key], payloads[i])
	}
	w.waitAll(len(w.senders), drainWall)
	w.marks = append(w.marks, readHost())
	w.timeReference()
}

// timeReference times the reference computation a few times; outside the
// measured windows, so it costs the group nothing.
func (w *wallRun) timeReference() {
	for i := 0; i < 5; i++ {
		w.refs = append(w.refs, float64(refCost()))
	}
}

// results checks the run and folds its figures into e: one window per
// second of the schedule, charged with the costs sampled at its bounds.
func (w *wallRun) results(out *outcome, e *endToEnd) report {
	rep := checkDeliveries(w.senders, w.logs)
	out.addReport(rep, len(w.senders))
	lats := make([][]float64, len(w.marks)-1)
	msgs := make([]int, len(lats))
	var last int64
	for k := w.warm; k < len(w.senders); k++ {
		i := min(int((w.due[k]-w.loadAt)/int64(windowLen)), len(lats)-1)
		msgs[i]++
		all := true
		for p := 1; p <= w.n; p++ {
			t := rep.first[p][k]
			if t < 0 {
				all = false
				continue
			}
			lats[i] = append(lats[i], float64(t-w.due[k])/1e6)
			if t > last {
				last = t
			}
		}
		if all {
			e.full++
		}
	}
	scale := speedScale(time.Duration(median(w.refs)))
	for i, lat := range lats {
		e.windows = append(e.windows, newWindow(lat, costBetween(w.marks[i], w.marks[i+1]), msgs[i], scale))
	}
	e.clock += float64(last-w.loadAt) / 1e9
	return rep
}

// genLagMs is the generator's mean lateness per message.
func (w *wallRun) genLagMs() float64 {
	if n := len(w.senders) - w.warm; n > 0 {
		return ms(w.lag) / float64(n)
	}
	return 0
}

// setupGroups builds spec.setups groups with build, timing each from the
// start of the build until a broadcast can be issued; all but the last are
// closed at once. It returns the last group.
func setupGroups(spec wallSpec, e *endToEnd, build func() (group, error)) (group, error) {
	var g group
	for i := 0; i < spec.setups; i++ {
		if g != nil {
			g.close()
		}
		t0 := time.Now()
		var err error
		if g, err = build(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		e.setups = append(e.setups, time.Since(t0).Seconds())
	}
	return g, nil
}
