package main

import (
	"strings"
	"time"

	"abcast/internal/metrics"
	"abcast/internal/msg"
	"abcast/internal/stack"
	"abcast/internal/trace"
	"abcast/internal/wire"
)

// profiledLayers are the packages whose sampled self CPU time is reported
// as <layer>.cpu_us_per_msg.
var profiledLayers = []string{"sim", "simnet", "core", "consensus", "rbcast", "msg", "relink", "persist", "tcpnet", "live", "wire"}

// addProfile converts self CPU time by package (ns) into per-layer µs per
// fully delivered message. The benchmark's own package is the harness.
func addProfile(m map[string]float64, byPkg map[string]float64, full float64) {
	layer := map[string]float64{}
	for pkg, ns := range byPkg {
		name := pkg
		switch {
		case pkg == "main" || pkg == "abcast/perfbench":
			name = "harness"
		case strings.HasPrefix(pkg, "abcast/internal/"):
			name = strings.TrimPrefix(pkg, "abcast/internal/")
			if i := strings.IndexByte(name, '/'); i >= 0 {
				name = name[:i] // wire/binary is part of the wire layer
			}
		}
		layer[name] += ns
	}
	for _, l := range append(profiledLayers, "harness") {
		m[l+".cpu_us_per_msg"] = layer[l] / 1e3 / full
	}
}

// stageAcc accumulates the lifecycle-trace stages of delivered messages:
// diffusion (abroadcast at the sender → first receipt at a process),
// ordering (receipt → the identifier's ordered-queue entry), queue (ordered
// → adeliver), and per consensus instance propose → decide at a process.
type stageAcc struct {
	diff, ord, queue, decide, hop float64
	n, nDecide, nHop              int
}

type pid = stack.ProcessID

// add folds in one run's events. Only first occurrences count, so a
// restarted process's redeliveries do not.
func (s *stageAcc) add(evs []trace.Event) {
	type bcast struct {
		at time.Time
		p  pid
	}
	type stamps struct{ receive, ordered, adeliver time.Time }
	type pk struct {
		p pid
		k uint64
	}
	type pm struct {
		p  pid
		id msg.ID
	}
	sent := map[msg.ID]bcast{}
	at := map[pm]*stamps{}
	proposed := map[pk]time.Time{}
	decided := map[pk]time.Time{}
	get := func(p pid, id msg.ID) *stamps {
		st := at[pm{p, id}]
		if st == nil {
			st = &stamps{}
			at[pm{p, id}] = st
		}
		return st
	}
	var order []pm
	var decideOrder []pk
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindABroadcast:
			if _, ok := sent[ev.ID]; !ok {
				sent[ev.ID] = bcast{ev.At, ev.P}
			}
		case trace.KindReceive:
			if st := get(ev.P, ev.ID); st.receive.IsZero() {
				st.receive = ev.At
			}
		case trace.KindOrdered:
			if st := get(ev.P, ev.ID); st.ordered.IsZero() {
				st.ordered = ev.At
			}
		case trace.KindADeliver:
			if st := get(ev.P, ev.ID); st.adeliver.IsZero() {
				st.adeliver = ev.At
				order = append(order, pm{ev.P, ev.ID})
			}
		case trace.KindPropose:
			if _, ok := proposed[pk{ev.P, ev.K}]; !ok {
				proposed[pk{ev.P, ev.K}] = ev.At
			}
		case trace.KindDecide:
			if _, ok := decided[pk{ev.P, ev.K}]; !ok {
				decided[pk{ev.P, ev.K}] = ev.At
				decideOrder = append(decideOrder, pk{ev.P, ev.K})
			}
		}
	}
	// Walk deliveries in trace order so float sums do not depend on map
	// iteration order.
	for _, key := range order {
		b, ok := sent[key.id]
		st := at[key]
		if !ok || st.receive.IsZero() || st.ordered.IsZero() {
			continue
		}
		s.diff += ms(st.receive.Sub(b.at))
		s.ord += ms(st.ordered.Sub(st.receive))
		s.queue += ms(st.adeliver.Sub(st.ordered))
		s.n++
		if key.p != b.p {
			s.hop += ms(st.receive.Sub(b.at))
			s.nHop++
		}
	}
	for _, k := range decideOrder {
		if p, ok := proposed[k]; ok {
			s.decide += ms(decided[k].Sub(p))
			s.nDecide++
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metrics writes the stage means. hopLatency, when non-zero, is the
// configured one-way link latency the observed one-hop diffusion is
// compared against.
func (s *stageAcc) metrics(m map[string]float64, hopLatency time.Duration) {
	if s.n > 0 {
		m["rbcast.diffusion_ms"] = s.diff / float64(s.n)
		m["consensus.ordering_ms"] = s.ord / float64(s.n)
		m["core.queue_ms"] = s.queue / float64(s.n)
	}
	if s.nDecide > 0 {
		m["consensus.decide_ms"] = s.decide / float64(s.nDecide)
	}
	if hopLatency > 0 && s.nHop > 0 {
		m["live.hop_overshoot_ms"] = s.hop/float64(s.nHop) - ms(hopLatency)
	}
}

// counterSums totals the per-process metrics registries of one or more
// runs.
type counterSums struct {
	sum       map[string]float64
	decisions float64 // instances decided, counted once per run
}

// add folds in one run's registry snapshots, one per process.
func (c *counterSums) add(snaps []map[string]int64) {
	if c.sum == nil {
		c.sum = map[string]float64{}
	}
	most := 0.0
	for _, s := range snaps {
		for name, v := range s {
			c.sum[name] += float64(v)
		}
		if d := float64(s["core.decisions"]); d > most {
			most = d
		}
	}
	c.decisions += most
}

// snapshots reads registries (nil entries skipped).
func snapshots(regs []*metrics.Registry) []map[string]int64 {
	var out []map[string]int64
	for _, r := range regs {
		if r != nil {
			out = append(out, r.Snapshot())
		}
	}
	return out
}

// metrics writes the counter-derived layer metrics: ratios per fully
// delivered message or per decision, and repair activity per round.
func (c *counterSums) metrics(m map[string]float64, full, rounds float64) {
	if c.decisions > 0 {
		m["consensus.opens_standalone_per_decision"] = c.sum["consensus.opens_standalone"] / c.decisions
		m["core.ids_per_decision"] = full / c.decisions
	}
	m["relink.retransmits_per_msg"] = c.sum["relink.retransmitted"] / full
	m["relink.duplicates_per_msg"] = c.sum["relink.duplicates"] / full
	m["relink.probes_per_msg"] = c.sum["relink.probes"] / full
	for _, name := range []string{"core.fetches", "core.sync_requests", "consensus.relays_sent",
		"core.snapshots_installed", "fd.suspicions", "persist.checkpoints", "persist.prunes"} {
		m[name] = c.sum[name] / rounds
	}
}

// captureSender records every remote envelope a process sends, then hands
// it on unchanged.
type captureSender struct {
	next stack.Sender
	out  *[]stack.Envelope
}

func (c captureSender) Send(to stack.ProcessID, env stack.Envelope) {
	*c.out = append(*c.out, env)
	c.next.Send(to, env)
}

// codecSender frames every remote envelope with the wire codec, as tcpnet
// does, and hands the decoded copy on, so the receiving protocol layers
// run on what crossed the codec.
type codecSender struct {
	from pid
	next stack.Sender
	errs *int // envelopes that failed to encode or decode
}

func (c codecSender) Send(to stack.ProcessID, env stack.Envelope) {
	b, err := wire.EncodeEnvelope(c.from, env)
	if err != nil {
		*c.errs++
		return
	}
	from, dec, err := wire.DecodeEnvelope(b)
	if err != nil || from != c.from {
		*c.errs++
		return
	}
	c.next.Send(to, dec)
}

// wireStats replays the wire codec over captured envelopes: each is
// encoded as the sending process would frame it, then decoded again.
type wireStats struct {
	encNs, decNs time.Duration
	frames       int
	bytes        int
	bad          int // frames that did not decode to their sender
}

// add replays sent[p], the envelopes process p sent (index 0 unused).
func (s *wireStats) add(sent [][]stack.Envelope) {
	var frames [][]byte
	var from []stack.ProcessID
	for p := 1; p < len(sent); p++ {
		t0 := time.Now()
		for _, env := range sent[p] {
			b, err := wire.EncodeEnvelope(pid(p), env)
			if err != nil {
				s.bad++
				continue
			}
			frames = append(frames, b)
			from = append(from, pid(p))
		}
		s.encNs += time.Since(t0)
	}
	t0 := time.Now()
	for i, b := range frames {
		s.bytes += len(b)
		if p, _, err := wire.DecodeEnvelope(b); err != nil || p != from[i] {
			s.bad++
		}
	}
	s.decNs += time.Since(t0)
	s.frames += len(frames)
}

// metrics writes the codec's per-frame times and the bytes it puts on the
// wire per fully delivered message.
func (s *wireStats) metrics(m map[string]float64, full float64, out *outcome) {
	if s.bad > 0 {
		out.violate("%d sent envelopes do not survive the wire codec", s.bad)
	}
	if s.frames == 0 {
		return
	}
	m["wire.encode_ns_per_frame"] = float64(s.encNs.Nanoseconds()) / float64(s.frames)
	m["wire.decode_ns_per_frame"] = float64(s.decNs.Nanoseconds()) / float64(s.frames)
	m["wire.bytes_per_msg"] = float64(s.bytes) / full
}
