package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"steins/internal/server"
	"steins/internal/trace"
	"steins/securemem"
)

// tinyWorkload is a small serving shape for tests.
func tinyWorkload(batch int) workload {
	return workload{
		name: "tiny",
		tenant: server.TenantConfig{Name: "t", Scheme: securemem.SteinsSC, PGs: 2, Channels: 1,
			PoolBytes: 64 << 10, MetaCacheBytes: 4 << 10, KeySeed: 5},
		mix:   trace.Profile{Name: "tiny", WriteFrac: 0.5, GapMean: 1, Pattern: trace.Uniform},
		batch: batch, load: 20, setups: 2,
	}
}

// fakeBlocks serves GET/PUT the way the real handler does, but status
// decides the answer to every request and corrupt flips read bytes.
func fakeBlocks(seed uint64, status int, corrupt bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if status != http.StatusOK {
			w.WriteHeader(status)
			return
		}
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		addr, _ := strconv.ParseUint(r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:], 10, 64)
		b := blockFor(seed, addr, 0)
		if corrupt {
			b[0] ^= 1
		}
		w.Write(b[:])
	})
}

// TestFailFracAccounting checks the client ledger: a 429 or 503 fails
// every op of the request, a read whose bytes differ from the shadow
// fails, and a correct answer does not.
func TestFailFracAccounting(t *testing.T) {
	const seed, n = 3, 40
	for _, tc := range []struct {
		name       string
		status     int
		corrupt    bool
		writeFrac  float64
		wantFailed int64
	}{
		// Reads only where the fake must answer correctly: it serves the
		// prefill bytes and does not store writes.
		{"ok", http.StatusOK, false, 0, 0},
		{"mismatch", http.StatusOK, true, 0, n},
		{"429", http.StatusTooManyRequests, false, 0.5, n},
		{"503", http.StatusServiceUnavailable, false, 0.5, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(fakeBlocks(seed, tc.status, tc.corrupt))
			defer srv.Close()
			w := tinyWorkload(1)
			w.mix.WriteFrac = tc.writeFrac
			c := newClient(0, w, seed, srv.URL+"/v1/tenants/t", n, nil)
			c.run(n, true, 0)
			c.close()
			if c.led.attempted != n || c.led.failed != tc.wantFailed {
				t.Errorf("ledger %+v (fail frac %v), want %d of %d failed", c.led, c.led.failFrac(), tc.wantFailed, n)
			}
			if (c.err == nil) != (tc.wantFailed == 0) {
				t.Errorf("client error %v with %d failures", c.err, c.led.failed)
			}
		})
	}
}

// TestServePassIsCorrect runs a short serving pass of both request shapes,
// untraced and traced, against a real pool, checkpoint/restart cycles
// included, and requires every op and every restored readback to check
// out. The traced pass must also time the save/load split.
func TestServePassIsCorrect(t *testing.T) {
	for _, batch := range []int{1, 16} {
		for _, tr := range []*tracer{nil, newTracer()} {
			w := tinyWorkload(batch)
			res, err := runServe(w, 7, 1, t.TempDir(), tr)
			if err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			// The ledger holds the load and the 256-op readback after
			// every restart.
			if res.led.failed != 0 || res.led.attempted <= int64(w.cycles(1)*256) {
				t.Errorf("batch %d: ledger %+v", batch, res.led)
			}
			if len(res.ckptS) != w.cycles(1) || len(res.restartS) != w.cycles(1) {
				t.Errorf("batch %d: %d checkpoints and %d restarts, want %d", batch, len(res.ckptS), len(res.restartS), w.cycles(1))
			}
			for _, r := range res.recovery {
				if !r.Recovered {
					t.Errorf("batch %d: tenant %s not recovered: %s", batch, r.Tenant, r.Err)
				}
			}
			if tr != nil {
				spans := tr.all()
				for _, name := range []string{"snapshot.save", "snapshot.load", "snapshot.encode", "snapshot.decode"} {
					if len(durations(spans, name)) == 0 {
						t.Errorf("batch %d: no %s span", batch, name)
					}
				}
			}
		}
	}
}

// TestBatchBodyRoundTrip checks the /batch encoding against the handler's
// own decoder by serving one batch from a real pool.
func TestBatchBodyRoundTrip(t *testing.T) {
	w := tinyWorkload(4)
	p, err := buildPool(w.tenant, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	c := newClient(0, w, 9, srv.URL+"/v1/tenants/t", 4, nil)
	specs := []server.OpSpec{
		{IsWrite: true, Addr: 64, Data: blockFor(1, 64, 1)},
		{Addr: 64},
		{Addr: 128},
	}
	out, _, err := c.send(specs)
	c.close()
	if err != nil {
		t.Fatal(err)
	}
	if !out[1].ok || out[1].data != specs[0].Data || !out[2].ok || out[2].data != blockFor(9, 128, 0) {
		t.Errorf("batch results %+v", out)
	}
	if !bytes.Contains(batchBody(specs[:1]), []byte(`"op":"write"`)) {
		t.Error("batch body has no write op")
	}
}
