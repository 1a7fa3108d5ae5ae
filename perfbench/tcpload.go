package main

import (
	"time"

	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/metrics"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/stack"
	"abcast/internal/tcpnet"
	"abcast/internal/trace"
)

var tcpSpec = wallSpec{rate: 1000, setups: 21}

// tcpGroup is n tcpnet peers in this OS process, connected over 127.0.0.1,
// each running the default stack (indirect CT consensus over eager
// diffusion).
type tcpGroup struct {
	peers   []*tcpnet.Peer
	engines []*core.Engine
	// Traced groups only: registries, trace, sent envelopes per peer, and
	// time spent in Engine.ABroadcast.
	regs     []*metrics.Registry
	tr       *trace.Recorder
	sent     [][]stack.Envelope
	abcastNs []time.Duration
	abcasts  []int
}

func newTCPGroup(n int, seed int64, w *wallRun, traced bool) (*tcpGroup, error) {
	g := &tcpGroup{peers: make([]*tcpnet.Peer, n+1), engines: make([]*core.Engine, n+1)}
	if traced {
		g.regs = make([]*metrics.Registry, n+1)
		g.tr = trace.New()
		g.sent = make([][]stack.Envelope, n+1)
		g.abcastNs = make([]time.Duration, n+1)
		g.abcasts = make([]int, n+1)
	}
	addrs := make(map[stack.ProcessID]string, n)
	for p := 1; p <= n; p++ {
		opts := []tcpnet.Option{tcpnet.WithSeed(seed)}
		if traced {
			g.regs[p] = metrics.New()
			opts = append(opts, tcpnet.WithMetrics(g.regs[p]))
		}
		peer, err := tcpnet.Listen(pid(p), n, "127.0.0.1:0", opts...)
		if err != nil {
			g.close()
			return nil, err
		}
		g.peers[p] = peer
		addrs[pid(p)] = peer.Addr()
	}
	for p := 1; p <= n; p++ {
		p := p
		node := g.peers[p].Node()
		if traced {
			node.SetSender(captureSender{next: g.peers[p], out: &g.sent[p]})
		}
		hb := fd.DefaultConfig()
		if traced {
			hb.Metrics = g.regs[p]
		}
		cfg := core.Config{
			Variant:  core.VariantIndirectCT,
			RB:       rbcast.KindEager,
			Detector: fd.NewHeartbeat(node, hb),
			Deliver:  func(app *msg.App) { w.onDeliver(p, app.ID, app.Payload) },
		}
		if traced {
			cfg.Trace = g.tr
			cfg.Metrics = g.regs[p]
		}
		eng, err := core.New(node, cfg)
		if err != nil {
			g.close()
			return nil, err
		}
		g.engines[p] = eng
	}
	for p := 1; p <= n; p++ {
		if err := g.peers[p].Start(addrs); err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

func (g *tcpGroup) broadcast(p int, payload []byte) {
	g.peers[p].Do(func() {
		if g.abcastNs == nil {
			g.engines[p].ABroadcast(payload)
			return
		}
		t0 := time.Now()
		g.engines[p].ABroadcast(payload)
		g.abcastNs[p] += time.Since(t0)
		g.abcasts[p]++
	})
}

func (g *tcpGroup) close() {
	for _, p := range g.peers {
		if p != nil {
			p.Close()
		}
	}
}

// runTCP runs the tcp-loopback workload.
func runTCP(cfg runConfig) (*outcome, error) {
	return runWall(cfg, tcpSpec, func(w *wallRun, traced bool) (group, error) {
		return newTCPGroup(cfg.procs, cfg.seed, w, traced)
	}, tcpLayers)
}

// tcpLayers reports the traced tcp group's layer metrics: registry
// counters, trace stages, and the wire codec replayed over every frame the
// run sent.
func tcpLayers(m map[string]float64, gr group, full float64, out *outcome) {
	g := gr.(*tcpGroup)
	var counts counterSums
	var stages stageAcc
	counts.add(snapshots(g.regs))
	counts.metrics(m, full, 1)
	stages.add(g.tr.Events())
	stages.metrics(m, 0)
	var abNs time.Duration
	abN := 0
	for p := 1; p < len(g.peers); p++ {
		abNs += g.abcastNs[p]
		abN += g.abcasts[p]
	}
	if abN > 0 {
		m["core.abroadcast_us"] = float64(abNs.Nanoseconds()) / 1e3 / float64(abN)
	}

	var ws wireStats
	ws.add(g.sent)
	ws.metrics(m, full, out)
	// Network traffic per message, as on the simulator.
	m["simnet.net_msgs_per_msg"] = float64(ws.frames) / full
	m["simnet.net_bytes_per_msg"] = float64(ws.bytes) / full
}
