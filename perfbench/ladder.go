package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/server"
	"steins/internal/sim"
	"steins/internal/trace"
	"steins/securemem"
)

// rungOps is how many operations each standalone rung drives.
const rungOps = 30_000

// pgBytes is one placement group's share of the tenant pool (the
// benchmark's tenants use line interleave, which splits evenly).
func pgBytes(tc server.TenantConfig) uint64 { return tc.PoolBytes / uint64(tc.PGs) }

// rungOpsFor draws the rung op stream: the workload's mix over one PG's
// bytes, so every rung sees the same shape of traffic a PG sees.
func rungOpsFor(w workload, seed uint64) (trace.Profile, []trace.Op) {
	prof := w.mix
	prof.FootprintBytes = pgBytes(w.tenant)
	return prof, trace.Record(prof, seed^0x7ace, rungOps)
}

// replayPool replays every measured request of a serving pass through
// Pool.Do on a freshly built pool, one goroutine per client as in the
// pass, one span per request under the same request id as its HTTP span.
func replayPool(w workload, seed uint64, cs []*client, tr *tracer) error {
	p, err := buildPool(w.tenant, seed)
	if err != nil {
		return err
	}
	defer p.Close()
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for i, c := range cs {
		rec := tr.recorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, specs := range c.reqs {
				sp := rec.begin("pool.do", -1, int64(c.id)<<32+int64(k))
				_, aerr := p.Do(w.tenant.Name, specs)
				rec.end(sp)
				if aerr != nil && errs[i] == nil {
					errs[i] = fmt.Errorf("pool replay: %v", aerr)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// opTimes is one rung's mean host time per write and per read.
type opTimes struct{ writeNS, readNS float64 }

// timeOps drives ops through write/read, one span per call, and returns
// the mean host time per call of each kind.
func timeOps(ops []trace.Op, rec *recorder, layer string, write func(addr uint64, b securemem.Block) error,
	read func(addr uint64) (securemem.Block, error)) (opTimes, error) {
	var wsum, rsum time.Duration
	var wn, rn int
	for i, op := range ops {
		var err error
		if op.IsWrite {
			sp := rec.begin(layer+".write", -1, -1)
			t0 := time.Now()
			err = write(op.Addr, blockFor(1, op.Addr, uint64(i)+1))
			wsum += time.Since(t0)
			rec.end(sp)
			wn++
		} else {
			sp := rec.begin(layer+".read", -1, -1)
			t0 := time.Now()
			_, err = read(op.Addr)
			rsum += time.Since(t0)
			rec.end(sp)
			rn++
		}
		if err != nil {
			return opTimes{}, fmt.Errorf("%s rung op %d: %w", layer, i, err)
		}
	}
	return opTimes{writeNS: float64(wsum.Nanoseconds()) / float64(max(wn, 1)),
		readNS: float64(rsum.Nanoseconds()) / float64(max(rn, 1))}, nil
}

// newPGMemory builds a securemem.Memory of one PG's shape with the given
// channel count and writes every block once, so the rungs read populated
// memory as the served pools do.
func newPGMemory(tc server.TenantConfig, channels int) (*securemem.Memory, error) {
	m, err := securemem.New(securemem.Config{
		DataBytes: pgBytes(tc), Scheme: tc.Scheme, Channels: channels,
		MetaCacheBytes: tc.MetaCacheBytes, KeySeed: tc.KeySeed,
	})
	if err != nil {
		return nil, err
	}
	for a := uint64(0); a < pgBytes(tc); a += securemem.BlockSize {
		if err := m.Write(a, blockFor(0, a, 0)); err != nil {
			return nil, err
		}
	}
	for _, c := range m.Controllers() {
		c.ResetStats()
	}
	return m, nil
}

// rungs holds the standalone per-layer measurements.
type rungs struct {
	mem, ctrl     opTimes
	memStats      securemem.Stats
	ctrlStats     memctrl.Stats
	metaHitRate   float64
	nvmReads      uint64
	nvmWriteBytes uint64
	ops, writes   int
	genNS         float64 // per op
	simNS         float64 // per op
	simOverheadX  float64
}

// runRungs measures the securemem, memctrl, trace and sim rungs on the
// workload's op mix. The memctrl rung drives WriteData/ReadData on a
// single-channel Memory's controller, so its gap to the securemem rung (a
// Memory of the PG's own channel count) is the lock plus the dispatch.
func runRungs(w workload, seed uint64, tr *tracer) (*rungs, error) {
	rec := tr.recorder()
	prof, ops := rungOpsFor(w, seed)
	r := &rungs{ops: len(ops)}
	for _, op := range ops {
		if op.IsWrite {
			r.writes++
		}
	}

	m, err := newPGMemory(w.tenant, w.tenant.Channels)
	if err != nil {
		return nil, err
	}
	if r.mem, err = timeOps(ops, rec, "securemem", m.Write, m.Read); err != nil {
		return nil, err
	}
	r.memStats = m.Stats()

	m1, err := newPGMemory(w.tenant, 1)
	if err != nil {
		return nil, err
	}
	c := m1.Controller()
	write := func(a uint64, b securemem.Block) error { return c.WriteData(1, a, b) }
	read := func(a uint64) (securemem.Block, error) { return c.ReadData(1, a) }
	if r.ctrl, err = timeOps(ops, rec, "memctrl", write, read); err != nil {
		return nil, err
	}
	r.ctrlStats = c.Stats()
	r.metaHitRate = c.Meta().Stats().HitRate()
	dev := c.Device().Stats()
	r.nvmReads = dev.TotalReads()
	r.nvmWriteBytes = dev.WriteBytes()

	g := trace.New(prof, seed^0x7ace, rungOps)
	sp := rec.begin("trace.gen", -1, -1)
	t0 := time.Now()
	for {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	r.genNS = float64(time.Since(t0).Nanoseconds()) / rungOps
	rec.end(sp)

	if !w.sim {
		if err := r.simRung(w, prof, seed, rec); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// simRung drives the op mix through the simulator's replay loop (host ns
// per op) under the tenant's scheme and under its write-back baseline
// (simulated overhead).
func (r *rungs) simRung(w workload, prof trace.Profile, seed uint64, rec *recorder) error {
	s, ok := sim.SchemeByName(string(w.tenant.Scheme))
	if !ok {
		return fmt.Errorf("no simulator scheme %q", w.tenant.Scheme)
	}
	base := sim.WBGC
	if s.Split {
		base = sim.WBSC
	}
	opt := sim.Options{Ops: rungOps, Seed: seed, DataBytes: prof.FootprintBytes, MetaCacheBytes: w.tenant.MetaCacheBytes}
	var cycles [2]uint64
	for i, sc := range []sim.Scheme{s, base} {
		e := sim.NewSingle(prof, sc, opt)
		g := trace.New(prof, seed, rungOps)
		sp := rec.begin("sim.drive", -1, -1)
		t0 := time.Now()
		if _, err := e.DriveN(g, -1); err != nil {
			return err
		}
		if i == 0 {
			r.simNS = float64(time.Since(t0).Nanoseconds()) / rungOps
		}
		rec.end(sp)
		cycles[i] = e.Result().ExecCycles
	}
	r.simOverheadX = float64(cycles[0]) / float64(cycles[1])
	return nil
}

// useSweepCounts replaces the rung's simulated counts with the sweep's
// own, summed over its jobs: on sim_paper the controllers that matter are
// the sweep's, at the traces' full footprints. The metadata hit rate is the
// ops-weighted mean of the jobs' rates.
func (r *rungs) useSweepCounts(s *simResult) {
	var st memctrl.Stats
	var nvm nvmem.Stats
	var hits float64
	for _, j := range s.jobs {
		st.Merge(&j.res.Ctrl)
		nvm.Merge(&j.res.NVM)
		hits += j.res.MetaHitRate * float64(j.res.Ctrl.DataReads+j.res.Ctrl.DataWrites)
	}
	r.ctrlStats = st
	r.ops = int(st.DataReads + st.DataWrites)
	r.writes = int(st.DataWrites)
	r.metaHitRate = hits / float64(r.ops)
	r.nvmReads = nvm.TotalReads()
	r.nvmWriteBytes = nvm.WriteBytes()
}

// phaseFrac is one simulated phase's share of the rung's makespan.
func phaseFrac(st *memctrl.Stats, ph metrics.Phase) float64 {
	total := st.MakespanPhaseCycles()
	if total == 0 {
		return 0
	}
	return float64(st.PhaseCycles(ph)) / float64(total)
}
