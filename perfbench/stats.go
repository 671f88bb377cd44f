package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest rank.
// It refuses, with an error, a percentile that fewer than minTail samples
// lie beyond, so a tail figure is never read off a handful of points.
func percentile(samples []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(samples)
	if beyond := float64(n) * (1 - q); beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples (%.1f beyond)",
			q*100, minTail, n, beyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	return s[max(i, 0)], nil
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); it is the statistic for repeated identical work such as
// checkpoint cycles, where there is no tail to report.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so repeat-mode spreads read the same as
// any external check of them.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Clamp j to 1..n-1 before computing delta, as Python does.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// ledger counts operations attempted and failed. A failure is anything the
// client could not count as served correctly: a transport error, any non-2xx
// status (429 admission rejections included), a per-op engine error or a
// readback that does not match the client's shadow.
type ledger struct {
	attempted int64
	failed    int64
}

// add folds another client's ledger into l.
func (l *ledger) add(o ledger) {
	l.attempted += o.attempted
	l.failed += o.failed
}

// failFrac is failed over attempted.
func (l ledger) failFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// statusOK reports whether an HTTP status acknowledges the request.
func statusOK(status int) bool { return status >= 200 && status < 300 }

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	name, unit string
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric's name and unit fit the result
// format: names of letters, digits, '_', '.' and '-' starting with a letter
// or digit, at most 64 long; units at most 16 of letters, digits, '_', '/',
// '%', '.' and '-'.
func validMetric(d metricDef) bool {
	return metricNameRE.MatchString(d.name) && unitRE.MatchString(d.unit)
}
