package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"steins/internal/memctrl"
	"steins/internal/sim"
	"steins/internal/snapshot"
	"steins/internal/trace"
)

// simTraces and simSchemes are the paper's sweep: a write-heavy persistent
// trace and a SPEC-like zipf one, each through the GC and SC write-back
// baselines and Steins, in this fixed order on one worker. The last job's
// engine is the one checkpointed, so no finished engine outlives its job
// except that one.
var (
	simTraces  = []string{"pers_hash", "gcc_r"}
	simSchemes = []sim.Scheme{sim.WBGC, sim.SteinsGC, sim.WBSC, sim.SteinsSC}
)

// spanOps is how many simulated requests one traced sim.drive span covers.
const spanOps = 1000

// simJob is one finished (trace, scheme) run of the sweep.
type simJob struct {
	prof   trace.Profile
	scheme sim.Scheme
	res    sim.Result
	hostNS float64 // measured drive time
}

// simResult is one pass of the sweep.
type simResult struct {
	figures
	jobs      []simJob
	overheadX float64
	fig17     memctrl.RecoveryReport
	ckptBytes int64
	recovery  memctrl.RecoveryReport
}

// runSim is one pass of the sim_paper workload: every job set up (build
// plus warm-up, repeated) and driven one simulated request at a time, whose
// host time is the latency sample; then the Fig. 17 recovery point; then
// checkpoint/restart cycles of the last job's engine (Steins-SC on gcc_r)
// through the simulator's own snapshot path.
func runSim(w workload, seed uint64, seconds int, dir string, tr *tracer) (*simResult, error) {
	res := &simResult{figures: figures{setupS: make([]float64, w.setups)}}
	opsPerJob := w.load * seconds
	rec := tr.recorder()

	var keep *sim.Single
	var keepGen *trace.Generator
	var keepHdr snapshot.RunHeader
	for _, name := range simTraces {
		prof, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown trace %q", name)
		}
		for _, s := range simSchemes {
			job := rec.begin("sim.job", -1, -1)
			opt := sim.Options{Ops: opsPerJob, WarmupOps: w.warmup, Seed: seed}
			var e *sim.Single
			var gen *trace.Generator
			for k := 0; k < w.setups; k++ {
				runtime.GC()
				sp := rec.begin("sim.setup", job, -1)
				t0 := time.Now()
				e = sim.NewSingle(prof, s, opt)
				gen = trace.New(prof, seed, w.warmup+opsPerJob)
				if _, err := e.DriveN(gen, w.warmup); err != nil {
					return nil, err
				}
				res.setupS[k] += time.Since(t0).Seconds()
				rec.end(sp)
			}
			runtime.GC() // the discarded set-ups are garbage; collect them untimed
			// One DriveN call per op: the latency sample is the host time
			// of one simulated request. Spans cover blocks of ops, so the
			// traced pass does not double the per-op timing cost.
			var driven int
			t0 := time.Now()
			for driven < opsPerJob {
				sp := rec.begin("sim.drive", job, -1)
				for end := min(driven+spanOps, opsPerJob); driven < end; driven++ {
					c0 := time.Now()
					n, err := e.DriveN(gen, 1)
					dt := time.Since(c0)
					if err != nil {
						return nil, err
					}
					if n == 0 {
						return nil, fmt.Errorf("%s/%s: trace ended after %d ops", name, s.Name, driven)
					}
					res.lat = append(res.lat, float64(dt.Nanoseconds())/1e3)
				}
				rec.end(sp)
			}
			host := time.Since(t0)
			res.elapsed += host
			res.ops += int64(driven)
			res.led.attempted += int64(driven) // a failed op would have ended the run
			res.jobs = append(res.jobs, simJob{prof: prof, scheme: s, res: e.Result(), hostNS: float64(host.Nanoseconds())})
			rec.end(job)
			if name == simTraces[len(simTraces)-1] && s.Name == sim.SteinsSC.Name {
				keep, keepGen = e, gen
				keepHdr = snapshot.RunHeader{Workload: name, Scheme: s.Name, TotalOps: opsPerJob,
					WarmupOps: w.warmup, Seed: seed}
			}
		}
	}
	res.overheadX = overheadX(res.jobs)

	var err error
	sp := rec.begin("sim.fig17", -1, -1)
	res.fig17, err = sim.RecoveryAtCacheSize(sim.SteinsSC, 256<<10, seed)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("fig. 17 recovery: %w", err)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapInuse) / (1 << 20)

	shadow, order := simShadow(keepHdr, keepGen)
	path := filepath.Join(dir, w.name+".snap")
	defer os.Remove(path)
	for i := 0; i < w.cycles(seconds); i++ {
		c, err := simCycle(keep, keepGen, keepHdr, path, rec, res)
		if err != nil {
			return nil, err
		}
		res.led.add(simReadback(c, shadow, order, seed^uint64(i+1)*0x5851f42d4c957f2d))
	}
	if rec != nil {
		st, err := snapshot.CaptureSingle(keepHdr, keepGen, keep)
		if err != nil {
			return nil, err
		}
		err = timeSplit(rec, path,
			func() ([]byte, error) {
				var buf bytes.Buffer
				err := snapshot.Write(&buf, st)
				return buf.Bytes(), err
			},
			func(data []byte) error { _, err := snapshot.Read(bytes.NewReader(data)); return err })
		if err != nil {
			return nil, err
		}
	}
	runtime.KeepAlive(keep)
	return res, nil
}

// overheadX is the geometric mean of Steins over write-back simulated
// execution cycles, GC and SC leaves, over both traces: the paper's Fig. 9
// and Fig. 12 axis.
func overheadX(jobs []simJob) float64 {
	cycles := map[string]uint64{}
	for _, j := range jobs {
		cycles[j.prof.Name+"/"+j.scheme.Name] = j.res.ExecCycles
	}
	var logSum float64
	var n int
	for _, t := range simTraces {
		for _, pair := range [][2]string{{"Steins-GC", "WB-GC"}, {"Steins-SC", "WB-SC"}} {
			logSum += math.Log(float64(cycles[t+"/"+pair[0]]) / float64(cycles[t+"/"+pair[1]]))
			n++
		}
	}
	return math.Exp(logSum / float64(n))
}

// simShadow replays the kept job's trace to learn which op last wrote each
// address (its payload is sim.Payload(addr, op)); order lists the written
// addresses in first-write order so sampling is deterministic.
func simShadow(h snapshot.RunHeader, g *trace.Generator) (map[uint64]int, []uint64) {
	prof, _ := trace.ByName(h.Workload)
	replay := trace.New(prof, h.Seed, h.WarmupOps+h.TotalOps)
	shadow := map[uint64]int{}
	var order []uint64
	for i := 0; i < h.WarmupOps+h.TotalOps-g.Remaining(); i++ {
		op, ok := replay.Next()
		if !ok {
			break
		}
		if op.IsWrite {
			if _, seen := shadow[op.Addr]; !seen {
				order = append(order, op.Addr)
			}
			shadow[op.Addr] = i
		}
	}
	return shadow, order
}

// simCycle checkpoints the kept engine as steinssim -checkpoint does and
// restarts it as -resume does, then crashes and recovers the restored
// engine. Traced or not, it makes the same calls; tracing only wraps each
// in a span.
func simCycle(e *sim.Single, g *trace.Generator, h snapshot.RunHeader, path string, rec *recorder, res *simResult) (*memctrl.Controller, error) {
	runtime.GC()
	t0 := time.Now()
	ck := rec.begin("engine.checkpoint", -1, -1)
	st, err := timed(rec, "engine.state", ck, func() (*snapshot.RunState, error) { return snapshot.CaptureSingle(h, g, e) })
	if err == nil {
		err = timedErr(rec, "snapshot.save", ck, func() error { return snapshot.SaveFile(path, st) })
	}
	rec.end(ck)
	ckpt := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if fi, err := os.Stat(path); err == nil {
		res.ckptBytes = fi.Size()
	}

	// A restart runs in a fresh process: start it from a collected heap,
	// not one full of the checkpoint's garbage.
	runtime.GC()
	t1 := time.Now()
	rs := rec.begin("engine.restart", -1, -1)
	st2, err := timed(rec, "snapshot.load", rs, func() (*snapshot.RunState, error) { return snapshot.LoadFile(path) })
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	r, err := timed(rec, "engine.restore", rs, st2.Resume)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	c := r.Single.Controller()
	rep, err := timed(rec, "engine.recover", rs, func() (memctrl.RecoveryReport, error) {
		c.Crash()
		return c.Recover()
	})
	rec.end(rs)
	t2 := time.Now()
	if err != nil {
		res.led.attempted++
		res.led.failed++
		return nil, fmt.Errorf("recover: %w", err)
	}
	res.ckptS = append(res.ckptS, ckpt.Seconds())
	res.restartS = append(res.restartS, t2.Sub(t1).Seconds())
	res.recovery = rep
	return c, nil
}

// simReadback reads 256 seeded written addresses back from the recovered
// engine and compares each with the payload its last write stored.
func simReadback(c *memctrl.Controller, shadow map[uint64]int, order []uint64, seed uint64) ledger {
	r := rand.New(rand.NewPCG(seed, 11))
	var led ledger
	for i := 0; i < 256 && len(order) > 0; i++ {
		addr := order[r.IntN(len(order))]
		led.attempted++
		got, err := c.ReadData(1, addr)
		if err != nil || got != sim.Payload(addr, shadow[addr]) {
			led.failed++
		}
	}
	return led
}
