// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the Steins secure-memory engine, checks every
// served byte, and prints its end-to-end metrics (or, traced, its
// per-layer metrics) with a JSON result as the last line of output.
//
//	bash perfbench/run.sh --workload serve_kv --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the layer each
// per-layer metric belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"steins/internal/metrics"
	"steins/internal/server"
	"steins/internal/trace"
	"steins/securemem"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// tenant is the serving shape. For sim_paper, whose end-to-end path
	// does not serve, it is the shape its traced run measures the serving
	// rungs at.
	tenant server.TenantConfig
	// mix is the op mix; FootprintBytes is filled in per use.
	mix trace.Profile
	// batch is the ops per HTTP request: 1 sends PUT/GET, more POST /batch.
	batch int
	// load is, per unit of --seconds, the requests each client sends
	// (serving workloads) or the ops each sweep job drives (sim_paper). It
	// is sized so that an untraced run at --seconds 20 takes about 20 s on a
	// 2-vCPU host; the work is a fixed count, so a slower host takes longer.
	load int
	// warmup is each sweep job's warm-up op count, part of its set-up.
	warmup int
	// setups is how many times a run builds its state; setup_s is the
	// median. A serving set-up takes about 60 ms, a sweep's about 0.6 s.
	setups int
	sim    bool
}

// cycles is how many identical checkpoint/restart cycles a run makes.
func (w workload) cycles(seconds int) int { return max(5, seconds*3/4) }

var workloads = []workload{
	{
		name: "serve_kv",
		tenant: server.TenantConfig{Name: "kv", Scheme: securemem.SteinsGC, PGs: 2, Channels: 1,
			PoolBytes: 4 << 20, MetaCacheBytes: 32 << 10, KeySeed: 11},
		mix:   trace.Profile{Name: "serve_kv", WriteFrac: 0.05, GapMean: 1, Pattern: trace.Zipf, ZipfS: 0.99},
		batch: 1, load: 5500, setups: 15,
	},
	{
		name: "serve_write",
		tenant: server.TenantConfig{Name: "wr", Scheme: securemem.SteinsSC, PGs: 4, Channels: 2,
			PoolBytes: 4 << 20, MetaCacheBytes: 4 << 10, KeySeed: 12},
		mix:   trace.Profile{Name: "serve_write", WriteFrac: 0.75, GapMean: 1, Pattern: trace.Uniform},
		batch: 128, load: 350, setups: 15,
	},
	{
		name: "sim_paper",
		// The paper's 256 KiB cache to 128 MiB footprint, scaled to 4 MiB.
		tenant: server.TenantConfig{Name: "sim", Scheme: securemem.SteinsSC, PGs: 1, Channels: 1,
			PoolBytes: 4 << 20, MetaCacheBytes: 8 << 10, KeySeed: 13},
		mix:   trace.Profile{Name: "sim_paper", WriteFrac: 0.35, GapMean: 1, Pattern: trace.Zipf, ZipfS: 0.99},
		batch: 1, load: 20_000, warmup: 20_000, setups: 5, sim: true,
	},
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p95_us", "us"},
	{"checkpoint_s", "s"},
	{"restart_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload.
var perLayer = []metricDef{
	{"http.rtt_us", "us"},
	{"http.self_us", "us"},
	{"http.bytes_per_op", "B"},
	{"pool.do_us", "us"},
	{"pool.self_us", "us"},
	{"pool.ops_per_batch", "ops"},
	{"pool.reject_frac", "frac"},
	{"pool.inflight_hwm", "count"},
	{"securemem.write_ns", "ns"},
	{"securemem.read_ns", "ns"},
	{"securemem.sim_write_cycles", "cycles"},
	{"securemem.sim_read_cycles", "cycles"},
	{"memctrl.write_ns", "ns"},
	{"memctrl.read_ns", "ns"},
	{"memctrl.hash_ops_per_op", "count"},
	{"memctrl.aes_ops_per_op", "count"},
	{"memctrl.phase_meta_fetch_frac", "frac"},
	{"memctrl.phase_verify_chain_frac", "frac"},
	{"memctrl.phase_crypto_frac", "frac"},
	{"memctrl.phase_nvm_read_frac", "frac"},
	{"memctrl.phase_write_drain_frac", "frac"},
	{"cache.meta_hit_rate", "frac"},
	{"nvmem.write_bytes_per_user_byte", "ratio"},
	{"nvmem.reads_per_op", "count"},
	{"trace.gen_ns_per_op", "ns"},
	{"sim.ns_per_op", "ns"},
	{"sim.overhead_x", "x"},
	{"engine.state_s", "s"},
	{"snapshot.save_s", "s"},
	{"snapshot.load_s", "s"},
	{"engine.restore_s", "s"},
	{"engine.recover_s", "s"},
	{"snapshot.encode_s", "s"},
	{"file.write_s", "s"},
	{"file.read_s", "s"},
	{"snapshot.decode_s", "s"},
	{"snapshot.bytes", "B"},
	{"engine.recover_nvm_reads", "count"},
	{"engine.recover_mac_ops", "count"},
	{"engine.recover_sim_us", "sim_us"},
	{"tracing.ops_per_s_ratio", "x"},
	{"tracing.p50_ratio", "x"},
}

// metricValue is one metric in the JSON result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 when every check passed, 1 when a check failed or
// the run could not finish, 2 on bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve_kv, serve_write or sim_paper")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "run scale: op and cycle counts grow with it; an untraced run takes about this many seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	repeat := fs.Int("repeat", 0, "run the workload this many times on consecutive seeds and print each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) || *repeat < 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload serve_kv|serve_write|sim_paper, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(w.name, *seed, *seconds, *traced, *repeat, stdout, stderr)
	}
	dir := filepath.Join(".bench_build", "perfbench-run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = measureTraced(w, *seed, *seconds, dir, stdout)
	} else {
		res, err = measure(w, *seed, *seconds, dir, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, _ := json.Marshal(res) // cannot fail: newResult admits finite values only
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed their checks\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// figures are the raw end-to-end figures of one pass, whichever kind.
type figures struct {
	setupS          []float64 // per set-up repetition
	elapsed         time.Duration
	ops             int64     // acknowledged (serving) or retired (simulated) ops
	lat             []float64 // µs per request
	ckptS, restartS []float64 // per checkpoint/restart cycle
	heapMB          float64
	led             ledger
}

// pass is one pass of a workload: a serving pass or a sweep pass.
type pass struct {
	serve *serveResult
	sim   *simResult
}

func (p pass) figures() *figures {
	if p.sim != nil {
		return &p.sim.figures
	}
	return &p.serve.figures
}

// runPass runs one pass of w; tr is nil for an untraced pass.
func runPass(w workload, seed uint64, seconds int, dir string, tr *tracer) (pass, error) {
	var p pass
	var err error
	if w.sim {
		p.sim, err = runSim(w, seed, seconds, dir, tr)
	} else {
		p.serve, err = runServe(w, seed, seconds, dir, tr)
	}
	return p, err
}

// endToEndMetrics computes the end-to-end metric values of a pass.
func endToEndMetrics(f *figures) (map[string]float64, error) {
	p50, err := percentile(f.lat, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(f.lat, 0.95)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":      median(f.setupS),
		"ops_per_s":    float64(f.ops) / f.elapsed.Seconds(),
		"p50_us":       p50,
		"p95_us":       p95,
		"checkpoint_s": median(f.ckptS),
		"restart_s":    median(f.restartS),
		"heap_mb":      f.heapMB,
	}, nil
}

// measure is the untraced run: the end-to-end metrics.
func measure(w workload, seed uint64, seconds int, dir string, out io.Writer) (*result, error) {
	p, err := runPass(w, seed, seconds, dir, nil)
	if err != nil {
		return nil, err
	}
	vals, err := endToEndMetrics(p.figures())
	if err != nil {
		return nil, err
	}
	report(out, w, "end-to-end", endToEnd, vals)
	reportExtras(out, w, p)
	return newResult(p.figures().led, endToEnd, vals)
}

// reportExtras prints the end-to-end figures the JSON result leaves out:
// the failure fraction (zero by design), the latency sample count, p99
// (too unsteady to gate) and sim_paper's exact simulated results.
func reportExtras(out io.Writer, w workload, p pass) {
	f := p.figures()
	fmt.Fprintf(out, "%-12s %-34s %14.6g %s\n", w.name, "fail_frac", f.led.failFrac(), "frac")
	fmt.Fprintf(out, "%-12s %-34s %14d %s\n", w.name, "latency_samples", len(f.lat), "count")
	// p99 is printed but is not a result metric. On a 2-vCPU VM a 2.5-3 ms
	// latency mode, which grows with the host's load and vanishes with one
	// scheduler thread, hits about 1% of requests: p99 sits on its edge
	// and its ten-run quartile spread reached 0.49; p95's stayed at or
	// under 0.15.
	if p99, err := percentile(f.lat, 0.99); err == nil {
		fmt.Fprintf(out, "%-12s %-34s %14.6g %s\n", w.name, "p99_us", p99, "us")
	}
	if s := p.sim; s != nil {
		fmt.Fprintf(out, "%-12s %-34s %14.6f %s\n", w.name, "sim_overhead_x", s.overheadX, "x")
		fmt.Fprintf(out, "%-12s %-34s %14.3f %s\n", w.name, "sim_recover_us", s.fig17.TimeNS/1e3, "sim_us")
		for _, j := range s.jobs {
			fmt.Fprintf(out, "%-12s %-34s %14d %s\n", w.name,
				fmt.Sprintf("sim.%s.%s.exec_cycles", j.scheme.Name, j.prof.Name), j.res.ExecCycles, "cycles")
			fmt.Fprintf(out, "%-12s %-34s %14.1f %s\n", w.name,
				fmt.Sprintf("sim.%s.%s.ns_per_op", j.scheme.Name, j.prof.Name), j.hostNS/float64(j.res.Ops), "ns")
		}
	}
}

// report prints one line per metric: workload, name, value, unit.
func report(out io.Writer, w workload, kind string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(out, "# %s metrics of %s\n", kind, w.name)
	for _, d := range defs {
		fmt.Fprintf(out, "%-12s %-34s %14.6g %s\n", w.name, d.name, vals[d.name], d.unit)
	}
}

// newResult assembles the JSON result; every declared metric must have a
// finite value.
func newResult(led ledger, defs []metricDef, vals map[string]float64) (*result, error) {
	res := &result{Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// measureTraced is the traced run: an untraced pass, the same pass traced,
// then the per-layer rungs. Its metrics are the per-layer ones plus the
// tracing overhead (traced against untraced end-to-end figures); on
// sim_paper every simulated counter of the two passes must be identical.
func measureTraced(w workload, seed uint64, seconds int, dir string, out io.Writer) (*result, error) {
	base, err := runPass(w, seed, seconds, dir, nil)
	if err != nil {
		return nil, err
	}
	baseVals, err := endToEndMetrics(base.figures())
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, err := runPass(w, seed, seconds, dir, tr)
	if err != nil {
		return nil, err
	}
	tracedVals, err := endToEndMetrics(p.figures())
	if err != nil {
		return nil, err
	}
	led := base.figures().led
	led.add(p.figures().led)
	if w.sim {
		if diff := simDiff(base.sim, p.sim); diff != "" {
			fmt.Fprintf(out, "%-12s simulated counters differ between untraced and traced runs: %s\n", w.name, diff)
			led.attempted++
			led.failed++
		}
	}

	// The serving figures: the pass itself on serving workloads; a traced
	// serving pass at the workload's serving shape on sim_paper.
	sv := p.serve
	if sv == nil {
		pool, err := buildPool(w.tenant, seed)
		if err != nil {
			return nil, err
		}
		sv = &serveResult{}
		err = serveLoad(pool, w, seed, 2000, tr, sv)
		pool.Close()
		if err != nil {
			return nil, err
		}
		led.add(sv.led)
	}
	if err := replayPool(w, seed, sv.clients, tr); err != nil {
		return nil, err
	}
	rg, err := runRungs(w, seed, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.all()
	vals := layerMetrics(w, p, sv, rg, spans)
	vals["tracing.ops_per_s_ratio"] = baseVals["ops_per_s"] / tracedVals["ops_per_s"]
	vals["tracing.p50_ratio"] = tracedVals["p50_us"] / baseVals["p50_us"]

	spanPath := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# tracing overhead on %s: untraced against traced end-to-end metrics\n", w.name)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "%-12s %-34s %14.6g %14.6g %s\n", w.name, d.name, baseVals[d.name], tracedVals[d.name], d.unit)
	}
	fmt.Fprintf(out, "# spans of %s (%d) written to %s; per span name: count, total, self, median\n", w.name, len(spans), spanPath)
	for _, s := range summarize(spans) {
		fmt.Fprintf(out, "%-12s %-34s %8d %12.3f ms %12.3f ms %12.3f us\n", w.name, s.name, s.count,
			float64(s.totalNS)/1e6, float64(s.selfNS)/1e6, s.medianNS/1e3)
	}
	report(out, w, "per-layer", perLayer, vals)
	reportExtras(out, w, p)
	return newResult(led, perLayer, vals)
}

// simDiff compares every simulated result of two sweep passes and the
// Fig. 17 recovery report; it returns "" when they are identical.
func simDiff(a, b *simResult) string {
	if len(a.jobs) != len(b.jobs) {
		return fmt.Sprintf("%d jobs against %d", len(a.jobs), len(b.jobs))
	}
	for i := range a.jobs {
		if !reflect.DeepEqual(a.jobs[i].res, b.jobs[i].res) {
			return fmt.Sprintf("job %s/%s", a.jobs[i].prof.Name, a.jobs[i].scheme.Name)
		}
	}
	if !reflect.DeepEqual(a.fig17, b.fig17) {
		return "fig. 17 recovery report"
	}
	if !reflect.DeepEqual(a.recovery, b.recovery) {
		return "checkpoint recovery report"
	}
	return ""
}

// layerMetrics derives the per-layer metrics from the traced pass, its
// serving figures, the rungs and the spans.
func layerMetrics(w workload, p pass, sv *serveResult, rg *rungs, spans []span) map[string]float64 {
	v := map[string]float64{}
	us := func(ns float64) float64 { return ns / 1e3 }
	sec := func(ns []float64) float64 { return median(ns) / 1e9 }

	v["http.rtt_us"] = us(median(durations(spans, "http.request")))
	rtt, do := byReq(spans, "http.request"), byReq(spans, "pool.do")
	var self []float64
	for id, d := range rtt {
		if x, ok := do[id]; ok {
			self = append(self, d-x)
		}
	}
	v["http.self_us"] = us(median(self))

	// The measured requests, as the clients recorded them.
	var reqs, ops, writes float64
	for _, c := range sv.clients {
		for _, r := range c.reqs {
			reqs++
			for _, s := range r {
				ops++
				if s.IsWrite {
					writes++
				}
			}
		}
	}
	v["http.bytes_per_op"] = float64(sv.bytes) / max(ops, 1)
	v["pool.do_us"] = us(median(durations(spans, "pool.do")))
	perOp := (writes*rg.mem.writeNS + (ops-writes)*rg.mem.readNS) / max(ops, 1)
	v["pool.self_us"] = v["pool.do_us"] - us(ops/max(reqs, 1)*perOp)
	batches := float64(sv.admAfter.Batches - sv.admBefore.Batches)
	v["pool.ops_per_batch"] = ops / max(batches, 1)
	offered := float64(sv.admAfter.Offered - sv.admBefore.Offered)
	v["pool.reject_frac"] = float64(sv.admAfter.Rejected-sv.admBefore.Rejected) / max(offered, 1)
	v["pool.inflight_hwm"] = float64(sv.admAfter.InFlightHWM)

	v["securemem.write_ns"] = rg.mem.writeNS
	v["securemem.read_ns"] = rg.mem.readNS
	v["securemem.sim_write_cycles"] = rg.memStats.AvgWriteCycles
	v["securemem.sim_read_cycles"] = rg.memStats.AvgReadCycles

	if p.sim != nil {
		rg.useSweepCounts(p.sim)
	}
	st := &rg.ctrlStats
	n := float64(rg.ops)
	v["memctrl.write_ns"] = rg.ctrl.writeNS
	v["memctrl.read_ns"] = rg.ctrl.readNS
	v["memctrl.hash_ops_per_op"] = float64(st.HashOps) / n
	v["memctrl.aes_ops_per_op"] = float64(st.AESOps) / n
	for _, ph := range []metrics.Phase{metrics.PhaseMetaFetch, metrics.PhaseVerify, metrics.PhaseCrypto,
		metrics.PhaseNVMRead, metrics.PhaseWriteDrain} {
		v["memctrl.phase_"+ph.String()+"_frac"] = phaseFrac(st, ph)
	}
	v["cache.meta_hit_rate"] = rg.metaHitRate
	v["nvmem.write_bytes_per_user_byte"] = float64(rg.nvmWriteBytes) / (float64(rg.writes) * securemem.BlockSize)
	v["nvmem.reads_per_op"] = float64(rg.nvmReads) / n
	v["trace.gen_ns_per_op"] = rg.genNS
	if s := p.sim; s != nil {
		v["sim.ns_per_op"] = float64(s.elapsed.Nanoseconds()) / float64(s.ops)
		v["sim.overhead_x"] = s.overheadX
	} else {
		v["sim.ns_per_op"] = rg.simNS
		v["sim.overhead_x"] = rg.simOverheadX
	}

	// The cycle's own calls, as medians over the traced cycles; restore
	// includes NewPool on the serving path, so the restart parts add up.
	v["engine.state_s"] = sec(durations(spans, "engine.state"))
	v["snapshot.save_s"] = sec(durations(spans, "snapshot.save"))
	v["snapshot.load_s"] = sec(durations(spans, "snapshot.load"))
	v["engine.restore_s"] = sec(childSums(spans, "engine.restart", "engine.new", "engine.restore"))
	v["engine.recover_s"] = sec(durations(spans, "engine.recover"))
	// The save/load split, timed apart from the cycles on the same state.
	for _, name := range []string{"snapshot.encode", "file.write", "file.read", "snapshot.decode"} {
		v[name+"_s"] = sec(durations(spans, name))
	}
	if s := p.sim; s != nil {
		v["snapshot.bytes"] = float64(s.ckptBytes)
		v["engine.recover_nvm_reads"] = float64(s.recovery.NVMReads)
		v["engine.recover_mac_ops"] = float64(s.recovery.MACOps)
		v["engine.recover_sim_us"] = s.recovery.TimeNS / 1e3
	} else {
		v["snapshot.bytes"] = float64(p.serve.ckptBytes)
		var reads, macs uint64
		var simNS float64
		for _, r := range p.serve.recovery {
			reads += r.NVMReads
			macs += r.MACOps
			simNS = max(simNS, r.SimulatedNS)
		}
		v["engine.recover_nvm_reads"] = float64(reads)
		v["engine.recover_mac_ops"] = float64(macs)
		v["engine.recover_sim_us"] = simNS / 1e3
	}
	return v
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
