package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/metrics"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/sim"
	"abcast/internal/simnet"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// simSpec is the make-up of one simulator round. Every round builds a fresh
// simnet.World with the Setup 2 cost model and n processes, offers an
// open-loop Poisson load for loadFor of virtual time, then runs until every
// message is delivered everywhere (or drainMax passes).
type simSpec struct {
	rate    float64       // aggregate offered load, msgs per virtual second
	loadFor time.Duration // virtual duration of the offered load
	// restart, when set, persists every process to a persist.FileStore and
	// crashes process n (which never broadcasts) at crashAt, dropping its
	// in-flight traffic, then restarts it from its checkpoint at restartAt.
	restart            bool
	crashAt, restartAt time.Duration
	// codec, when set, round-trips every remote envelope through the wire
	// codec before it enters the simulated network (codecSender).
	codec bool
}

const drainMax = 10 * time.Second // virtual time allowed after the load ends

var (
	simSteadySpec  = simSpec{rate: 2000, loadFor: 2 * time.Second}
	simWireSpec    = simSpec{rate: 2000, loadFor: 2 * time.Second, codec: true}
	simRestartSpec = simSpec{rate: 1000, loadFor: 3 * time.Second, restart: true,
		crashAt: 1 * time.Second, restartAt: 1500 * time.Millisecond}
)

// simRound is the outcome of one simulator round.
type simRound struct {
	senders  []int
	sentAt   []int64 // virtual ns of each key's ABroadcast call
	logs     []procLog
	setup    time.Duration
	host     hostCost
	events   int
	stepWall time.Duration
	netMsgs  int64
	netBytes int64
	// lastFull is the virtual instant the last fully delivered message
	// reached its last process; full counts fully delivered messages.
	lastFull int64
	full     int
	catchup  float64 // ms; restart rounds only
	codecErr int     // envelopes the wire codec failed on (codec rounds)
	liveMB   float64 // live heap at the end of the round
	layers   *simLayers
}

// simLayers holds what a traced round records about single layers.
type simLayers struct {
	tr       *trace.Recorder
	regs     []*metrics.Registry
	stores   storeTimes
	abcastNs time.Duration
	abcasts  int
	// sent[p] holds the envelopes p sent, when no recovery layer owns the
	// node's send hook; wire replays them through the codec.
	sent [][]stack.Envelope
	wire wireStats
}

// runSimRound runs one round of spec. With traced set the round also
// records the lifecycle trace, per-process metrics registries and timing
// wrappers; the simulation itself must not change.
func runSimRound(spec simSpec, n int, seed int64, workdir string, traced bool) (*simRound, error) {
	r := &simRound{logs: make([]procLog, n+1)}
	rng := rand.New(rand.NewSource(seed))

	// Inputs: the open-loop schedule, drawn before the group exists.
	type send struct {
		at  time.Duration
		p   int
		key int
	}
	var sched []send
	var from []int
	for p := 1; p <= n; p++ {
		if !spec.restart || p != n || n == 1 {
			from = append(from, p)
		}
	}
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / spec.rate * float64(time.Second))
		if t >= spec.loadFor {
			break
		}
		p := from[rng.Intn(len(from))]
		sched = append(sched, send{at: t, p: p, key: len(r.senders)})
		r.senders = append(r.senders, p)
	}
	total := len(r.senders)
	r.sentAt = make([]int64, total)
	payloads := make([][]byte, total)
	for _, s := range sched {
		payloads[s.key] = makePayload(seed, uint64(s.key), s.p)
	}
	for p := 1; p <= n; p++ {
		r.logs[p].correct = true
		r.logs[p].incs = [][]delivery{make([]delivery, 0, total)}
	}

	var lay *simLayers
	if traced {
		lay = &simLayers{tr: trace.New(), regs: make([]*metrics.Registry, n+1), sent: make([][]stack.Envelope, n+1)}
		for p := 1; p <= n; p++ {
			lay.regs[p] = metrics.New()
		}
		r.layers = lay
	}

	// Online delivery bookkeeping, for run control and catch-up only; the
	// checker recomputes everything from the logs.
	first := make([][]int64, n+1)
	count := make([]int, total)
	var needed []bool
	remaining := -1
	restartAt := int64(-1)

	// Set-up is timed as the CPU time of this thread, scaled like every CPU
	// figure (refspeed.go): it runs no other thread and waits on nothing,
	// so wall time would only add the host's preemptions. It starts on a
	// freshly collected heap, so a collection the previous round left
	// half done is not charged to it.
	dir := ""
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	start := threadCPU()
	w := simnet.NewWorld(n, netmodel.Setup2(), seed)
	now := func() int64 { return int64(w.Engine().Now()) }
	engines := make([]*core.Engine, n+1)
	stores := make([]persist.Store, n+1)
	if spec.restart {
		var err error
		if dir, err = os.MkdirTemp(workdir, "round-"); err != nil {
			return nil, fmt.Errorf("sim round: %w", err)
		}
		defer os.RemoveAll(dir)
	}
	openStore := func(p int) (persist.Store, error) {
		fs, err := persist.OpenFileStore(filepath.Join(dir, fmt.Sprintf("p%d", p)))
		if err != nil {
			return nil, err
		}
		if lay != nil {
			return &timedStore{Store: fs, t: &lay.stores}, nil
		}
		return fs, nil
	}
	startProc := func(p int, node *stack.Node) error {
		hb := fd.DefaultConfig()
		if lay != nil {
			hb.Metrics = lay.regs[p]
		}
		cfg := core.Config{
			Variant:      core.VariantIndirectCT,
			RB:           rbcast.KindEager,
			Detector:     fd.NewHeartbeat(node, hb),
			RcvCheckCost: w.Params().RcvCheckPerID,
			Deliver: func(app *msg.App) {
				key, sender, ok := readPayload(app.Payload)
				t := now()
				r.logs[p].deliver(delivery{key: key, sender: sender, id: app.ID, ok: ok, at: t})
				if !ok || key >= uint64(total) || first[p][key] >= 0 {
					return
				}
				first[p][key] = t
				if count[key]++; count[key] == n {
					r.full++
					r.lastFull = t
				}
				if p == n && needed != nil && needed[key] {
					if remaining--; remaining == 0 {
						r.catchup = float64(t-restartAt) / 1e6
					}
				}
			},
		}
		if spec.restart {
			cfg.Persist = &core.PersistConfig{Store: stores[p]}
		}
		var out stack.Sender = node.Context()
		if spec.codec {
			out = codecSender{from: pid(p), next: out, errs: &r.codecErr}
		}
		if lay != nil {
			cfg.Trace = lay.tr
			cfg.Metrics = lay.regs[p]
			out = captureSender{next: out, out: &lay.sent[p]}
		}
		// A persisting engine installs its recovery link on this hook and
		// replaces what is set here.
		if out != stack.Sender(node.Context()) {
			node.SetSender(out)
		}
		eng, err := core.New(node, cfg)
		if err != nil {
			return err
		}
		engines[p] = eng
		return nil
	}
	for p := 1; p <= n; p++ {
		first[p] = make([]int64, total)
		for k := range first[p] {
			first[p][k] = -1
		}
		if spec.restart {
			s, err := openStore(p)
			if err != nil {
				return nil, err
			}
			stores[p] = s
		}
		if err := startProc(p, w.Node(stack.ProcessID(p))); err != nil {
			return nil, err
		}
	}
	r.setup = threadCPU() - start

	for _, s := range sched {
		s := s
		w.After(stack.ProcessID(s.p), s.at, func() {
			r.sentAt[s.key] = now()
			if lay == nil {
				engines[s.p].ABroadcast(payloads[s.key])
				return
			}
			t0 := time.Now()
			engines[s.p].ABroadcast(payloads[s.key])
			lay.abcastNs += time.Since(t0)
			lay.abcasts++
		})
	}
	var restartErr error
	if spec.restart && n > 1 {
		victim := stack.ProcessID(n)
		w.Engine().At(sim.Time(spec.crashAt), func() { w.Crash(victim, simnet.DropInFlight) })
		w.Engine().At(sim.Time(spec.restartAt), func() {
			// Catch-up target: every message a peer has delivered by now.
			needed = make([]bool, total)
			remaining = 0
			restartAt = now()
			for k := 0; k < total; k++ {
				for p := 1; p < n; p++ {
					if first[p][k] >= 0 && first[n][k] < 0 {
						needed[k] = true
						remaining++
						break
					}
				}
			}
			// The dead incarnation's handle is closed before the next one
			// opens the same directory.
			stores[n].Close()
			s, err := openStore(n)
			if err == nil {
				stores[n] = s
				r.logs[n].restart()
				err = startProc(n, w.Restart(victim))
			}
			if err != nil && restartErr == nil {
				restartErr = err
			}
		})
	}

	from0 := readHost()
	deadline := spec.loadFor + drainMax
	for {
		t := w.Engine().Now()
		if (t >= sim.Time(spec.loadFor) && r.full == total) || t >= sim.Time(deadline) {
			break
		}
		t0 := time.Now()
		r.events += w.Engine().RunUntil(t.Add(50 * time.Millisecond))
		r.stepWall += time.Since(t0)
	}
	r.host.add(from0)
	r.liveMB = liveHeapMB()
	runtime.KeepAlive(w)
	for p := 1; p <= n; p++ {
		if stores[p] != nil {
			stores[p].Close()
		}
	}
	if restartErr != nil {
		return nil, fmt.Errorf("restart: %w", restartErr)
	}
	if spec.restart && n > 1 && remaining != 0 {
		// Never caught up (the checker counts the misses): the round's
		// end is the floor of its catch-up time.
		r.catchup = float64(now()-restartAt) / 1e6
	}
	r.netMsgs, r.netBytes = w.MsgsSent(), w.BytesSent()

	return r, nil
}

// storeTimes accumulates wall time spent in persist.Store writes.
type storeTimes struct {
	saveNs, walNs time.Duration
	saves, wals   int
}

// timedStore times the write path of a persist.Store.
type timedStore struct {
	persist.Store
	t *storeTimes
}

func (s *timedStore) SaveCheckpoint(cp *persist.Checkpoint) error {
	t0 := time.Now()
	err := s.Store.SaveCheckpoint(cp)
	s.t.saveNs += time.Since(t0)
	s.t.saves++
	return err
}

func (s *timedStore) AppendWAL(rec persist.WALRecord) error {
	t0 := time.Now()
	err := s.Store.AppendWAL(rec)
	s.t.walNs += time.Since(t0)
	s.t.wals++
	return err
}
