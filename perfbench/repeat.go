package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns runs the workload n times, each in a fresh process on seed,
// seed+1, ..., and prints every metric's median, quartiles and quartile
// spread as a share of the median: the figures a bound must cover. A
// held-out seed range checks that a run's steadiness is not a property of
// the seeds it was tuned on.
func repeatRuns(name string, seed uint64, seconds, traced, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d (seed %d): %v\n", i+1, s, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d (seed %d): result line: %v\n", i+1, s, err)
			return 1
		}
		fmt.Fprintf(stdout, "run %d seed %d: correct=%v attempted=%d failed=%d\n", i+1, s, res.Correct, res.Attempted, res.Failed)
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	fmt.Fprintf(stdout, "# %s over %d runs, seeds %d..%d: median, q1, q3, (q3-q1)/median\n", name, n, seed, seed+uint64(n)-1)
	for _, k := range sortedKeys(vals) {
		q1, q2, q3, err := quartiles(vals[k])
		if err != nil {
			fmt.Fprintf(stdout, "%-34s %v\n", k, err)
			continue
		}
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(stdout, "%-34s %14.6g %14.6g %14.6g %8.4f %s\n", k, q2, q1, q3, spread, units[k])
	}
	return 0
}
