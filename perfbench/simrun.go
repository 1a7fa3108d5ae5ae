package main

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"time"
)

// simPass aggregates the measured rounds of one kind (untraced or traced)
// of a simulator run.
type simPass struct {
	agg      endToEnd
	events   int
	stepWall time.Duration
	netMsgs  int64
	netBytes int64
	catchups []float64
	// virtual fingerprints each round's virtual outcome, to compare the
	// traced rounds with the untraced ones.
	virtual []string
	layers  []*simLayers // traced rounds only
}

// add checks round r and, unless it is the warm-up round, folds it into
// the pass. scale is the host-speed scale measured before the round.
func (sp *simPass) add(spec simSpec, r *simRound, warm bool, scale float64, out *outcome) {
	rep := checkDeliveries(r.senders, r.logs)
	out.addReport(rep, len(r.senders))
	if r.codecErr > 0 {
		out.violate("the wire codec failed on %d envelopes", r.codecErr)
	}
	if warm {
		// The first round warms caches and the heap; it is checked but
		// not measured.
		return
	}
	lat := make([]float64, 0, len(r.senders)*(len(r.logs)-1))
	for p := 1; p < len(r.logs); p++ {
		for k, t := range rep.first[p] {
			if t >= 0 {
				lat = append(lat, float64(t-r.sentAt[k])/1e6)
			}
		}
	}
	sp.virtual = append(sp.virtual, fmt.Sprintf("full=%d last=%d events=%d net=%d/%d catchup=%v lat=%v",
		r.full, r.lastFull, r.events, r.netMsgs, r.netBytes, r.catchup, latDigest(lat)))
	sp.agg.windows = append(sp.agg.windows, newWindow(lat, r.host, r.full, scale))
	sp.agg.setups = append(sp.agg.setups, r.setup.Seconds()*scale)
	sp.agg.full += r.full
	sp.agg.clock += float64(r.lastFull) / 1e9
	sp.agg.heapMB = max(sp.agg.heapMB, r.liveMB)
	sp.events += r.events
	sp.stepWall += r.stepWall
	sp.netMsgs += r.netMsgs
	sp.netBytes += r.netBytes
	if spec.restart {
		sp.catchups = append(sp.catchups, r.catchup)
	}
	if r.layers != nil {
		sp.layers = append(sp.layers, r.layers)
	}
}

// latDigest folds a latency sample into a short exact fingerprint.
func latDigest(xs []float64) string {
	var h uint64 = 1469598103934665603
	for _, x := range xs {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return fmt.Sprintf("%d:%x", len(xs), h)
}

// runSim runs a simulator workload: rounds with seeds derived from the
// workload seed, until the time budget is spent (round 0 warms up and at
// least one round is measured). Untraced, it reports the end-to-end
// metrics. Traced, every round runs twice, untraced and then traced under
// a CPU profile, back to back so both see the same host; the virtual
// outcomes must be identical, and the per-layer metrics come from the
// traced rounds.
func runSim(spec simSpec, cfg runConfig) (*outcome, error) {
	out := &outcome{}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var a, b simPass
	var prof *cpuProfile
	if cfg.trace {
		var err error
		if prof, err = startCPUProfile("traced"); err != nil {
			return nil, err
		}
		// Stops the profile on the error paths; stopping twice is harmless.
		defer pprof.StopCPUProfile()
	}
	begin := time.Now()
	for i := 0; i < 2 || time.Since(begin) < budget; i++ {
		seed := cfg.seed*1_000_003 + int64(i)
		scale := 1.0
		if !cfg.trace {
			scale = speedScale(refCost())
		}
		r, err := runSimRound(spec, cfg.procs, seed, cfg.workdir, false)
		if err != nil {
			return nil, err
		}
		a.add(spec, r, i == 0, scale, out)
		if !cfg.trace {
			continue
		}
		// Measured traced rounds run under a profiler label, so the
		// profile counts them alone.
		label := "traced"
		if i == 0 {
			label = "warm-up"
		}
		pprof.Do(context.Background(), pprof.Labels(profileKey, label), func(context.Context) {
			r, err = runSimRound(spec, cfg.procs, seed, cfg.workdir, true)
		})
		if err != nil {
			return nil, err
		}
		// Replayed outside the profiled region: the replay is the
		// benchmark's measurement, not the workload's codec use.
		r.layers.wire.add(r.layers.sent)
		r.layers.sent = nil
		b.add(spec, r, i == 0, scale, out)
	}
	if !cfg.trace {
		out.metrics = a.agg.metrics()
		out.notef("rounds=%d latency_samples=%d", len(a.virtual), a.agg.samples())
		return out, nil
	}

	for i := range a.virtual {
		if a.virtual[i] != b.virtual[i] {
			out.violate("round %d: the traced run differs from the untraced one: %s vs %s", i+1, b.virtual[i], a.virtual[i])
		}
	}
	am, bm := a.agg.metrics(), b.agg.metrics()
	for _, name := range []string{"latency_p50_ms", "latency_p99_ms", "throughput_msgs_per_s"} {
		if am[name] != bm[name] {
			out.violate("traced %s = %v, untraced %v", name, bm[name], am[name])
		}
	}

	byPkg, err := prof.stop()
	if err != nil {
		return nil, err
	}
	full := float64(b.agg.full)
	m := map[string]float64{}
	addProfile(m, byPkg, full)
	ah, amsgs := a.agg.total()
	bh, bmsgs := b.agg.total()
	m["trace.cpu_us_per_msg"] = float64(bh.cpu.Nanoseconds())/1e3/float64(bmsgs) - float64(ah.cpu.Nanoseconds())/1e3/float64(amsgs)
	m["runtime.gc_cpu_us_per_msg"] = ah.gcCPU * 1e6 / float64(amsgs)
	m["sim.events_per_msg"] = float64(a.events) / float64(a.agg.full)
	m["sim.ns_per_event"] = float64(a.stepWall.Nanoseconds()) / float64(a.events)
	m["simnet.net_msgs_per_msg"] = float64(a.netMsgs) / float64(a.agg.full)
	m["simnet.net_bytes_per_msg"] = float64(a.netBytes) / float64(a.agg.full)
	m["harness.latency_samples"] = float64(a.agg.samples())
	if spec.restart {
		m["restart.catchup_ms"] = median(a.catchups)
	}

	var counts counterSums
	var st storeTimes
	var abNs time.Duration
	abN := 0
	var stages stageAcc
	var ws wireStats
	for _, l := range b.layers {
		counts.add(snapshots(l.regs))
		st.saveNs += l.stores.saveNs
		st.walNs += l.stores.walNs
		st.saves += l.stores.saves
		st.wals += l.stores.wals
		abNs += l.abcastNs
		abN += l.abcasts
		stages.add(l.tr.Events())
		ws.encNs += l.wire.encNs
		ws.decNs += l.wire.decNs
		ws.frames += l.wire.frames
		ws.bytes += l.wire.bytes
		ws.bad += l.wire.bad
	}
	stages.metrics(m, 0)
	ws.metrics(m, full, out)
	counts.metrics(m, full, float64(len(b.layers)))
	if abN > 0 {
		m["core.abroadcast_us"] = float64(abNs.Nanoseconds()) / 1e3 / float64(abN)
	}
	if st.saves > 0 {
		m["persist.checkpoint_us"] = float64(st.saveNs.Nanoseconds()) / 1e3 / float64(st.saves)
	}
	if st.wals > 0 {
		m["persist.wal_append_us"] = float64(st.walNs.Nanoseconds()) / 1e3 / float64(st.wals)
	}
	out.metrics = m
	return out, nil
}
