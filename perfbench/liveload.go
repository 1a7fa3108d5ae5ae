package main

import (
	"time"

	"abcast"
	"abcast/internal/msg"
	"abcast/internal/stack"
)

var liveSpec = wallSpec{rate: 1000, setups: 21}

// liveLink is the public Cluster's default one-way link latency.
const liveLink = 200 * time.Microsecond

// liveGroup is the public abcast.Cluster: one goroutine per process over
// the in-memory delay-line network, default options.
type liveGroup struct {
	c        *abcast.Cluster
	abcastNs time.Duration // traced groups: time spent in Cluster.Broadcast
	abcasts  int
}

func newLiveGroup(n int, seed int64, w *wallRun, traced bool) (*liveGroup, error) {
	c, err := abcast.New(n, abcast.Options{
		Seed:    seed,
		Trace:   traced,
		Metrics: traced,
		OnDeliver: func(p int, d abcast.Delivery) {
			w.onDeliver(p, msg.ID{Sender: stack.ProcessID(d.Sender), Seq: d.Seq}, d.Payload)
		},
	})
	if err != nil {
		return nil, err
	}
	return &liveGroup{c: c}, nil
}

// broadcast is called from the generator goroutine only.
func (g *liveGroup) broadcast(p int, payload []byte) {
	t0 := time.Now()
	if err := g.c.Broadcast(p, payload); err != nil {
		return // the checker counts the message as undelivered
	}
	g.abcastNs += time.Since(t0)
	g.abcasts++
}

func (g *liveGroup) close() { g.c.Close() }

// runLive runs the live-cluster workload.
func runLive(cfg runConfig) (*outcome, error) {
	return runWall(cfg, liveSpec, func(w *wallRun, traced bool) (group, error) {
		return newLiveGroup(cfg.procs, cfg.seed, w, traced)
	}, liveLayers)
}

// liveLayers reports the traced cluster's layer metrics from its public
// trace and metrics surfaces.
func liveLayers(m map[string]float64, gr group, full float64, out *outcome) {
	g := gr.(*liveGroup)
	var counts counterSums
	var snaps []map[string]int64
	for p := 1; p <= g.c.N(); p++ {
		s, err := g.c.MetricsSnapshot(p)
		if err != nil {
			out.violate("metrics of p%d: %v", p, err)
			continue
		}
		snaps = append(snaps, s)
	}
	counts.add(snaps)
	counts.metrics(m, full, 1)
	var stages stageAcc
	stages.add(g.c.TraceEvents())
	stages.metrics(m, liveLink)
	if g.abcasts > 0 {
		m["core.abroadcast_us"] = float64(g.abcastNs.Nanoseconds()) / 1e3 / float64(g.abcasts)
	}
}

// runWall runs a wall-clock workload. Untraced: spec.setups groups are set
// up (setup_s is their median), the last one carries the open-loop load for
// cfg.seconds. Traced: an untraced group and then a traced one under a CPU
// profile carry half the time each; the per-layer metrics come from the
// traced one, tracing overhead is their difference.
func runWall(cfg runConfig, spec wallSpec, build func(*wallRun, bool) (group, error),
	layers func(map[string]float64, group, float64, *outcome)) (*outcome, error) {
	out := &outcome{}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	pass := func(spec wallSpec, dur time.Duration, traced bool) (*wallRun, *endToEnd, group, map[string]float64, error) {
		w := newWallRun(cfg.procs, cfg.seed)
		e := &endToEnd{}
		g, err := setupGroups(spec, e, func() (group, error) { return build(w, traced) })
		if err != nil {
			return nil, nil, nil, nil, err
		}
		var prof *cpuProfile
		if traced {
			if prof, err = startCPUProfile(""); err != nil {
				g.close()
				return nil, nil, nil, nil, err
			}
		}
		w.drive(g, spec, dur)
		e.heapMB = liveHeapMB()
		var byPkg map[string]float64
		if prof != nil {
			byPkg, err = prof.stop()
		}
		g.close()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		w.results(out, e)
		return w, e, g, byPkg, nil
	}
	if !cfg.trace {
		w, e, _, _, err := pass(spec, dur, false)
		if err != nil {
			return nil, err
		}
		out.metrics = e.metrics()
		out.notef("latency_samples=%d gen_lag_ms=%.4f", e.samples(), w.genLagMs())
		return out, nil
	}
	one := spec
	one.setups = 1
	wa, a, _, _, err := pass(one, dur/2, false)
	if err != nil {
		return nil, err
	}
	_, b, g, byPkg, err := pass(one, dur/2, true)
	if err != nil {
		return nil, err
	}
	full := float64(b.full)
	m := map[string]float64{}
	addProfile(m, byPkg, full)
	layers(m, g, full, out)
	ah, amsgs := a.total()
	bh, bmsgs := b.total()
	m["trace.cpu_us_per_msg"] = float64(bh.cpu.Nanoseconds())/1e3/float64(bmsgs) - float64(ah.cpu.Nanoseconds())/1e3/float64(amsgs)
	m["runtime.gc_cpu_us_per_msg"] = ah.gcCPU * 1e6 / float64(amsgs)
	m["harness.gen_lag_ms"] = wa.genLagMs()
	m["harness.latency_samples"] = float64(a.samples())
	out.metrics = m
	return out, nil
}
