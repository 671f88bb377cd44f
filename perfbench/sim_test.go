package main

import (
	"bytes"
	"testing"
)

// TestSimRepeatsExactly runs a short sweep twice on one seed: every
// simulated result, sim_overhead_x and the Fig. 17 recovery must repeat
// bit for bit, and every restored readback must check out.
func TestSimRepeatsExactly(t *testing.T) {
	w, _ := workloadByName("sim_paper")
	w.load, w.warmup = 400, 400
	a, err := runSim(w, 5, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSim(w, 5, 1, t.TempDir(), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if diff := simDiff(a, b); diff != "" {
		t.Errorf("untraced and traced sweeps differ: %s", diff)
	}
	if a.overheadX != b.overheadX || a.fig17.TimeNS != b.fig17.TimeNS {
		t.Errorf("sim_overhead_x %v/%v, sim_recover_us %v/%v", a.overheadX, b.overheadX, a.fig17.TimeNS, b.fig17.TimeNS)
	}
	for _, r := range []*simResult{a, b} {
		if r.led.failed != 0 || r.led.attempted == 0 {
			t.Errorf("restart readback %+v", r.led)
		}
	}
	c, err := runSim(w, 6, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if simDiff(a, c) == "" {
		t.Error("sweeps on different seeds are identical")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve_kv", "--trace", "2"},
		{"--workload", "serve_kv", "--seconds", "0"},
		{"--workload", "serve_kv", "extra"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %s", args, out.String())
		}
	}
}
