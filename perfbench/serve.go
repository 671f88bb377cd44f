package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"steins/internal/server"
	"steins/internal/snapshot"
	"steins/internal/trace"
	"steins/securemem"
)

// clients is the closed-loop client count: one per core of the 2-core
// host, so the figures measure the program rather than the scheduler.
const clients = 2

// blockFor derives the 64 bytes written at addr as its version'th value
// (version 0 is the prefill), so clients can keep their shadow cheaply and
// every byte of a readback is checked.
func blockFor(seed, addr, version uint64) (b securemem.Block) {
	x := seed ^ addr*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9
	for i := 0; i < securemem.BlockSize; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[i:], z^z>>31)
	}
	return b
}

// buildPool builds the tenant's pool and prefills every block with its
// version-0 value through Pool.Do, 128 ops a request: the set-up a serving
// run pays before it takes traffic.
func buildPool(tc server.TenantConfig, seed uint64) (*server.Pool, error) {
	p, err := server.NewPool(server.Config{Tenants: []server.TenantConfig{tc}})
	if err != nil {
		return nil, err
	}
	if err := prefill(p, tc, seed); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func prefill(p *server.Pool, tc server.TenantConfig, seed uint64) error {
	specs := make([]server.OpSpec, 0, server.DefaultBatchOps)
	flush := func() error {
		res, aerr := p.Do(tc.Name, specs)
		if aerr != nil {
			return fmt.Errorf("prefill: %v", aerr)
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("prefill %#x: %w", r.Addr, r.Err)
			}
		}
		specs = specs[:0]
		return nil
	}
	for a := uint64(0); a < tc.PoolBytes; a += securemem.BlockSize {
		specs = append(specs, server.OpSpec{IsWrite: true, Addr: a, Data: blockFor(seed, a, 0)})
		if len(specs) == cap(specs) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(specs) > 0 {
		return flush()
	}
	return nil
}

// client is one closed-loop HTTP client. It owns the address partition
// [base, base+len(shadow)*64) and keeps a shadow of what it wrote there.
type client struct {
	id      int
	seed    uint64
	base    uint64
	shadow  []securemem.Block
	gen     *trace.Generator
	url     string // tenant URL prefix
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	batch   int
	version uint64

	led   ledger    // every request, warm-up included
	lat   []float64 // µs per measured request
	acked int64     // ops acknowledged in the measured phase
	bytes int64     // request plus response body bytes in the measured phase
	reqs  [][]server.OpSpec
	rec   *recorder
	err   error // first transport or protocol error, for the report
}

func newClient(id int, w workload, seed uint64, url string, n int, rec *recorder) *client {
	part := w.tenant.PoolBytes / clients
	c := &client{
		id: id, seed: seed, base: uint64(id) * part,
		shadow: make([]securemem.Block, part/securemem.BlockSize),
		url:    url, batch: w.batch, rec: rec,
	}
	for i := range c.shadow {
		c.shadow[i] = blockFor(seed, c.base+uint64(i)*securemem.BlockSize, 0)
	}
	mix := w.mix
	mix.FootprintBytes = part
	c.gen = trace.New(mix, seed*1_000_003+uint64(id)+1, n*w.batch)
	return c
}

// next draws one request's operations from the client's generator.
func (c *client) next() []server.OpSpec {
	specs := make([]server.OpSpec, 0, c.batch)
	for len(specs) < c.batch {
		op, ok := c.gen.Next()
		if !ok {
			break
		}
		s := server.OpSpec{IsWrite: op.IsWrite, Addr: c.base + op.Addr}
		if s.IsWrite {
			c.version++
			s.Data = blockFor(c.seed, s.Addr, uint64(c.id+1)<<40|c.version)
		}
		specs = append(specs, s)
	}
	return specs
}

// run sends n requests and checks every answer into the ledger. When
// measure is set it also records latency, acknowledged ops and bytes.
func (c *client) run(n int, measure bool, reqBase int64) {
	for i := 0; i < n; i++ {
		specs := c.next()
		if len(specs) == 0 {
			return
		}
		var led ledger
		led.attempted = int64(len(specs))
		id := reqBase + int64(i)
		sp := -1
		if measure {
			sp = c.rec.begin("http.request", -1, id)
		}
		t0 := time.Now()
		results, nbytes, err := c.send(specs)
		dt := time.Since(t0)
		if measure {
			c.rec.end(sp)
		}
		if err != nil {
			led.failed = int64(len(specs))
			if c.err == nil {
				c.err = err
			}
		} else {
			led.failed = c.check(specs, results)
		}
		c.led.add(led)
		if measure {
			c.lat = append(c.lat, float64(dt.Nanoseconds())/1e3)
			c.acked += led.attempted - led.failed
			c.bytes += nbytes
			if c.rec != nil {
				c.reqs = append(c.reqs, specs)
			}
		}
	}
}

// opResult is one served operation as the client saw it.
type opResult struct {
	ok   bool
	data securemem.Block
}

// send issues one request: PUT/GET for single ops, POST /batch otherwise.
// A non-2xx status (429 included) is an error.
func (c *client) send(specs []server.OpSpec) ([]opResult, int64, error) {
	var req *http.Request
	var err error
	var sent int64
	if c.batch == 1 {
		u := c.url + "/blocks/" + strconv.FormatUint(specs[0].Addr, 10)
		if specs[0].IsWrite {
			req, err = http.NewRequest(http.MethodPut, u, bytes.NewReader(specs[0].Data[:]))
			sent = securemem.BlockSize
		} else {
			req, err = http.NewRequest(http.MethodGet, u, nil)
		}
	} else {
		body := batchBody(specs)
		sent = int64(len(body))
		req, err = http.NewRequest(http.MethodPost, c.url+"/batch", bytes.NewReader(body))
	}
	if err != nil {
		return nil, 0, err
	}
	body, status, err := c.roundTrip(req)
	if err != nil {
		return nil, sent, err
	}
	recv := int64(len(body))
	if !statusOK(status) {
		return nil, sent + recv, fmt.Errorf("%s: status %d: %s", req.Method, status, bytes.TrimSpace(body))
	}
	out := make([]opResult, len(specs))
	if c.batch == 1 {
		out[0].ok = true
		if !specs[0].IsWrite {
			if len(body) != securemem.BlockSize {
				return nil, sent + recv, fmt.Errorf("GET returned %d bytes", len(body))
			}
			copy(out[0].data[:], body)
		}
		return out, sent + recv, nil
	}
	var br struct {
		Results []server.BatchResult `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, sent + recv, fmt.Errorf("batch response: %w", err)
	}
	if len(br.Results) != len(specs) {
		return nil, sent + recv, fmt.Errorf("batch response has %d results for %d ops", len(br.Results), len(specs))
	}
	for i, r := range br.Results {
		out[i].ok = r.OK
		if r.OK && !specs[i].IsWrite {
			raw, err := base64.StdEncoding.DecodeString(r.Data)
			if err != nil || len(raw) != securemem.BlockSize {
				out[i].ok = false
				continue
			}
			copy(out[i].data[:], raw)
		}
	}
	return out, sent + recv, nil
}

// roundTrip sends req on the client's keep-alive connection, dialing it
// first if needed, and reads the whole response in the calling goroutine:
// a client is one goroutine, with no transport goroutines beside it.
func (c *client) roundTrip(req *http.Request) ([]byte, int, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", req.URL.Host)
		if err != nil {
			return nil, 0, err
		}
		c.conn, c.br, c.bw = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	err := req.Write(c.bw)
	if err == nil {
		err = c.bw.Flush()
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.br, req)
	}
	if err != nil {
		c.close()
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return body, resp.StatusCode, err
}

// close drops the client's connection.
func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func batchBody(specs []server.OpSpec) []byte {
	ops := make([]server.BatchOp, len(specs))
	for i, s := range specs {
		ops[i] = server.BatchOp{Op: "read", Addr: s.Addr}
		if s.IsWrite {
			ops[i].Op = "write"
			ops[i].Data = base64.StdEncoding.EncodeToString(s.Data[:])
		}
	}
	body, _ := json.Marshal(struct {
		Ops []server.BatchOp `json:"ops"`
	}{ops}) // cannot fail: plain structs of strings and integers
	return body
}

// check applies one acknowledged request to the shadow in op order and
// returns how many ops failed: per-op errors and reads whose bytes differ
// from the shadow.
func (c *client) check(specs []server.OpSpec, results []opResult) int64 {
	var failed int64
	for i, s := range specs {
		k := (s.Addr - c.base) / securemem.BlockSize
		switch {
		case !results[i].ok:
			failed++
		case s.IsWrite:
			c.shadow[k] = s.Data
		case results[i].data != c.shadow[k]:
			failed++
			if c.err == nil {
				c.err = fmt.Errorf("readback mismatch at %#x", s.Addr)
			}
		}
	}
	return failed
}

// serveResult is one serving pass.
type serveResult struct {
	figures
	bytes     int64
	ckptBytes int64
	recovery  []server.TenantRecovery
	admBefore server.AdmissionStats
	admAfter  server.AdmissionStats
	clients   []*client
}

// runServe is one serving pass of workload w: set-up (repeated), a
// warm-up, the measured closed-loop load over loopback HTTP, then the
// checkpoint/restart cycles on the quiesced pool. tr is nil for an
// untraced pass; traced, the pass also times the checkpoint's save/load
// split on the final state. dir holds the checkpoint file.
func runServe(w workload, seed uint64, seconds int, dir string, tr *tracer) (*serveResult, error) {
	res := &serveResult{}
	rec := tr.recorder()
	var p *server.Pool
	for i := 0; i < w.setups; i++ {
		if p != nil {
			p.Close()
		}
		runtime.GC()
		sp := rec.begin("engine.setup", -1, -1)
		t0 := time.Now()
		var err error
		if p, err = buildPool(w.tenant, seed); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		rec.end(sp)
	}
	defer p.Close()

	if err := serveLoad(p, w, seed, w.load*seconds, tr, res); err != nil {
		return nil, err
	}
	if err := firstErr(res.clients); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapInuse) / (1 << 20)

	path := filepath.Join(dir, w.name+".ckpt")
	defer os.Remove(path)
	for i := 0; i < w.cycles(seconds); i++ {
		if err := serveCycle(p, w, seed, path, i, rec, res); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		st, err := p.State()
		if err != nil {
			return nil, err
		}
		err = timeSplit(rec, path,
			func() ([]byte, error) { return snapshot.EncodeServer(st) },
			func(data []byte) error { _, err := snapshot.DecodeServer(bytes.NewReader(data)); return err })
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveLoad runs the clients against p over a loopback listener.
func serveLoad(p *server.Pool, w workload, seed uint64, reqs int, tr *tracer, res *serveResult) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: p.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	url := "http://" + ln.Addr().String() + "/v1/tenants/" + w.tenant.Name
	warm := reqs / 10
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for id := 0; id < clients; id++ {
		c := newClient(id, w, seed, url, warm+reqs, tr.recorder())
		res.clients = append(res.clients, c)
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			c.run(warm, false, 0)
			ready.Done()
			<-start
			c.run(reqs, true, int64(c.id)<<32)
		}()
	}
	ready.Wait()
	res.admBefore = p.Tenant(w.tenant.Name).Admission()
	t0 := time.Now()
	close(start)
	done.Wait()
	res.elapsed = time.Since(t0)
	res.admAfter = p.Tenant(w.tenant.Name).Admission()
	for _, c := range res.clients {
		c.close()
		res.led.add(c.led)
		res.lat = append(res.lat, c.lat...)
		res.ops += c.acked
		res.bytes += c.bytes
	}
	return nil
}

// serveCycle checkpoints the quiesced pool the way the daemon does on
// shutdown and restarts from the file the way it does on start, then reads
// a seeded sample back through the restored pool. Traced or not, it makes
// the daemon's calls; tracing only wraps each in a span.
func serveCycle(p *server.Pool, w workload, seed uint64, path string, cycle int, rec *recorder, res *serveResult) error {
	runtime.GC()
	cfg := server.Config{Tenants: []server.TenantConfig{w.tenant}}

	t0 := time.Now()
	ck := rec.begin("engine.checkpoint", -1, -1)
	st, err := timed(rec, "engine.state", ck, p.State)
	if err == nil {
		err = timedErr(rec, "snapshot.save", ck, func() error { return snapshot.SaveServerFile(path, st) })
	}
	rec.end(ck)
	ckpt := time.Since(t0)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if fi, err := os.Stat(path); err == nil {
		res.ckptBytes = fi.Size()
	}

	// A restart runs in a fresh process: start it from a collected heap,
	// not one full of the checkpoint's garbage.
	runtime.GC()
	t1 := time.Now()
	rs := rec.begin("engine.restart", -1, -1)
	p2, err := timed(rec, "engine.new", rs, func() (*server.Pool, error) { return server.NewPool(cfg) })
	if err != nil {
		return err
	}
	defer p2.Close()
	st2, err := timed(rec, "snapshot.load", rs, func() (*snapshot.ServerState, error) { return snapshot.LoadServerFile(path) })
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if err := timedErr(rec, "engine.restore", rs, func() error { return p2.RestoreState(st2) }); err != nil {
		return err
	}
	recs, _ := timed(rec, "engine.recover", rs, func() ([]server.TenantRecovery, error) { return p2.CrashRecoverAll(), nil })
	rec.end(rs)
	t2 := time.Now()

	res.ckptS = append(res.ckptS, ckpt.Seconds())
	res.restartS = append(res.restartS, t2.Sub(t1).Seconds())
	res.recovery = recs
	for _, tr := range recs {
		if !tr.Recovered {
			res.led.attempted++
			res.led.failed++
			return fmt.Errorf("tenant %s did not recover: %s", tr.Tenant, tr.Err)
		}
	}
	res.led.add(readbackSample(p2, w, res.clients, seed^uint64(cycle+1)*0x5851f42d4c957f2d))
	return nil
}

// timed runs f inside a span named name under parent.
func timed[T any](rec *recorder, name string, parent int, f func() (T, error)) (T, error) {
	sp := rec.begin(name, parent, -1)
	v, err := f()
	rec.end(sp)
	return v, err
}

// timedErr is timed for calls that return only an error.
func timedErr(rec *recorder, name string, parent int, f func() error) error {
	_, err := timed(rec, name, parent, func() (struct{}, error) { return struct{}{}, f() })
	return err
}

// splitReps is how many times a traced pass times the save/load split.
const splitReps = 5

// timeSplit times what a checkpoint save and load are made of, on the
// state a pass ended with, splitReps times: encode, the file write, the
// file read and decode, one span each. It runs after the cycles, so the
// cycles themselves make exactly the daemon's calls.
func timeSplit(rec *recorder, path string, encode func() ([]byte, error), decode func([]byte) error) error {
	tmp := path + ".split"
	defer os.Remove(tmp)
	for i := 0; i < splitReps; i++ {
		runtime.GC()
		sp := rec.begin("snapshot.split", -1, -1)
		data, err := timed(rec, "snapshot.encode", sp, encode)
		if err == nil {
			err = timedErr(rec, "file.write", sp, func() error { return os.WriteFile(tmp, data, 0o644) })
		}
		if err == nil {
			runtime.GC()
			data, err = timed(rec, "file.read", sp, func() ([]byte, error) { return os.ReadFile(tmp) })
		}
		if err == nil {
			err = timedErr(rec, "snapshot.decode", sp, func() error { return decode(data) })
		}
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("save/load split: %w", err)
		}
	}
	return nil
}

// readbackSample reads 256 seeded addresses (half from each client's
// partition) through Pool.Do on a restored pool and compares them with the
// shadows.
func readbackSample(p *server.Pool, w workload, cs []*client, seed uint64) ledger {
	r := rand.New(rand.NewPCG(seed, 7))
	var led ledger
	for _, c := range cs {
		specs := make([]server.OpSpec, 128)
		for i := range specs {
			specs[i].Addr = c.base + uint64(r.IntN(len(c.shadow)))*securemem.BlockSize
		}
		led.attempted += int64(len(specs))
		out, aerr := p.Do(w.tenant.Name, specs)
		if aerr != nil {
			led.failed += int64(len(specs))
			continue
		}
		for i, o := range out {
			if o.Err != nil || o.Data != c.shadow[(specs[i].Addr-c.base)/securemem.BlockSize] {
				led.failed++
			}
		}
	}
	return led
}

// firstErr returns the first client error of a pass.
func firstErr(cs []*client) error {
	var errs []error
	for _, c := range cs {
		if c.err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", c.id, c.err))
		}
	}
	return errors.Join(errs...)
}
