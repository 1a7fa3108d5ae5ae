// Command perfbench is the repository's benchmark: it runs one workload of
// the atomic broadcast stack, checks every delivery it observes against the
// properties uniform atomic broadcast must have, and prints one JSON object
// as the last line of standard output.
//
//	go run . --workload sim-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// the per-layer metrics of a separate traced run. See README.md for the
// workloads, the metrics and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	procs   int    // group size n
	workdir string // scratch space for persisted state, inside the checkout
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"sim-steady":   func(c runConfig) (*outcome, error) { return runSim(simSteadySpec, c) },
	"sim-restart":  func(c runConfig) (*outcome, error) { return runSim(simRestartSpec, c) },
	"sim-wire":     func(c runConfig) (*outcome, error) { return runSim(simWireSpec, c) },
	"tcp-loopback": runTCP,
	"live-cluster": runLive,
}

type metricDef struct{ name, unit string }

// endToEndMetrics are reported, every one, by each untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_msgs_per_s", "msgs/s"},
	{"cpu_us_per_msg", "us"},
	{"allocs_per_msg", "count"},
	{"heap_peak_mb", "MB"},
}

// perLayerMetrics are reported, every one, by each traced run; a layer the
// workload does not run reads 0.
var perLayerMetrics = []metricDef{
	{"sim.cpu_us_per_msg", "us"},
	{"sim.events_per_msg", "count"},
	{"sim.ns_per_event", "ns"},
	{"simnet.cpu_us_per_msg", "us"},
	{"simnet.net_msgs_per_msg", "count"},
	{"simnet.net_bytes_per_msg", "B"},
	{"consensus.opens_standalone_per_decision", "count"},
	{"core.ids_per_decision", "count"},
	{"rbcast.diffusion_ms", "ms"},
	{"consensus.ordering_ms", "ms"},
	{"consensus.decide_ms", "ms"},
	{"core.queue_ms", "ms"},
	{"core.cpu_us_per_msg", "us"},
	{"consensus.cpu_us_per_msg", "us"},
	{"rbcast.cpu_us_per_msg", "us"},
	{"msg.cpu_us_per_msg", "us"},
	{"core.abroadcast_us", "us"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.bytes_per_msg", "B"},
	{"wire.cpu_us_per_msg", "us"},
	{"tcpnet.cpu_us_per_msg", "us"},
	{"live.hop_overshoot_ms", "ms"},
	{"live.cpu_us_per_msg", "us"},
	{"relink.retransmits_per_msg", "count"},
	{"relink.duplicates_per_msg", "count"},
	{"relink.probes_per_msg", "count"},
	{"relink.cpu_us_per_msg", "us"},
	{"core.fetches", "count"},
	{"core.sync_requests", "count"},
	{"consensus.relays_sent", "count"},
	{"core.snapshots_installed", "count"},
	{"fd.suspicions", "count"},
	{"persist.checkpoint_us", "us"},
	{"persist.wal_append_us", "us"},
	{"persist.checkpoints", "count"},
	{"persist.prunes", "count"},
	{"persist.cpu_us_per_msg", "us"},
	{"restart.catchup_ms", "ms"},
	{"runtime.gc_cpu_us_per_msg", "us"},
	{"harness.cpu_us_per_msg", "us"},
	{"harness.gen_lag_ms", "ms"},
	{"harness.latency_samples", "count"},
	{"trace.cpu_us_per_msg", "us"},
}

// outcome is what a workload run hands back: the operations it attempted,
// how many failed, the checker's verdict and the metric values.
type outcome struct {
	attempted  int
	failed     int
	violations int
	examples   []string
	metrics    map[string]float64
	notes      []string
}

func (o *outcome) addReport(r report, attempted int) {
	o.attempted += attempted
	o.failed += r.undelivered
	o.violations += r.violations
	for _, e := range r.examples {
		if len(o.examples) < 8 {
			o.examples = append(o.examples, e)
		}
	}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations++
	if len(o.examples) < 8 {
		o.examples = append(o.examples, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// window is one measurement window of a run: a simulator round, or one
// second of a wall-clock schedule.
type window struct {
	p50, p99 float64  // latency quantiles (ms) over the window's samples
	samples  int      // latency samples: one per (message, delivering process)
	host     hostCost // process costs over the window
	msgs     int      // messages the window's costs are charged to
	scale    float64  // host-speed scale of the window's CPU time (refspeed.go)
}

// newWindow summarizes a window's latency samples (sorting lat).
func newWindow(lat []float64, host hostCost, msgs int, scale float64) window {
	return window{p50: quantile(lat, 0.50), p99: quantile(lat, 0.99), samples: len(lat), host: host, msgs: msgs, scale: scale}
}

// endToEnd aggregates the end-to-end figures of one pass. Latency
// quantiles, CPU and allocations are medians over the pass's windows, so a
// stall or a garbage collection that hits one window does not set the
// run's figure.
type endToEnd struct {
	setups  []float64 // seconds, one per group set up
	windows []window
	full    int     // messages delivered at every process that must
	clock   float64 // seconds of the run's clock the full deliveries took
	heapMB  float64
}

// total sums the costs and the messages of every window.
func (e *endToEnd) total() (hostCost, int) {
	var h hostCost
	msgs := 0
	for _, w := range e.windows {
		h.cpu += w.host.cpu
		h.allocs += w.host.allocs
		h.gcCPU += w.host.gcCPU
		msgs += w.msgs
	}
	return h, msgs
}

// samples is the number of latency samples over all windows.
func (e *endToEnd) samples() int {
	n := 0
	for _, w := range e.windows {
		n += w.samples
	}
	return n
}

func (e *endToEnd) metrics() map[string]float64 {
	var p50, p99, cpu, allocs []float64
	for _, w := range e.windows {
		if w.samples == 0 || w.msgs == 0 {
			continue
		}
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
		cpu = append(cpu, float64(w.host.cpu.Nanoseconds())/1e3/float64(w.msgs)*w.scale)
		allocs = append(allocs, float64(w.host.allocs)/float64(w.msgs))
	}
	return map[string]float64{
		"setup_s":               median(e.setups),
		"latency_p50_ms":        median(p50),
		"latency_p99_ms":        median(p99),
		"throughput_msgs_per_s": float64(e.full) / e.clock,
		"cpu_us_per_msg":        median(cpu),
		"allocs_per_msg":        median(allocs),
		"heap_peak_mb":          e.heapMB,
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-steady, sim-restart, sim-wire, tcp-loopback or live-cluster")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures (wall-clock seconds)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	procs := fs.Int("procs", 3, "group size n (1 gives the single-process baseline)")
	workdir := fs.String("workdir", ".bench_build/tmp", "scratch directory for persisted state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || *procs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, procs: *procs, workdir: *workdir}
	start := time.Now()
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: out.violations == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s has no value\n", *name, d.name)
			return 1
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	for _, note := range out.notes {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *name, note)
	}
	for _, e := range out.examples {
		fmt.Fprintf(stderr, "perfbench: %s: VIOLATION: %s\n", *name, e)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stderr, "perfbench: %s: %-40s %14.4f %s\n", *name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(stderr, "perfbench: %s: attempted=%d failed=%d violations=%d wall=%.1fs\n",
		*name, out.attempted, out.failed, out.violations, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if out.violations > 0 {
		return 1
	}
	return 0
}
