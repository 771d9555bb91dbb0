package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"

	"github.com/adm-project/adm/internal/storage"
)

// latencies is one phase's per-statement latencies in ms; a failed or
// wrong statement counts as the statement timeout, so it misses every
// latency limit.
func latencies(smp []sample) []float64 {
	out := make([]float64, len(smp))
	for i, s := range smp {
		out[i] = ms(s.lat)
		if s.fail || s.wrong {
			out[i] = ms(serverConfig().StatementTimeout)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tally counts statements, failures and wrong answers.
func tally(phases ...[]sample) (n, failed, wrong int) {
	for _, p := range phases {
		for _, s := range p {
			n++
			failed += b2i(s.fail || s.wrong)
			wrong += b2i(s.wrong)
		}
	}
	return n, failed, wrong
}

func genLagP99(smp []sample) float64 {
	lag := make([]float64, len(smp))
	for i, s := range smp {
		lag[i] = ms(s.lag)
	}
	return percentile(sorted(lag), 99)
}

// mixPercentile is the mean of the statement kinds' p-th percentile
// latencies, each weighted by its kind's nominal share of the stream
// (kindShare, renormalised over the kinds that have samples). A
// percentile of the whole mix, whose kinds differ tenfold, sits at the
// edge of a kind's cluster and jumps with small shifts in the mix;
// each kind's percentile does not, and fixed weights keep a seed that
// draws a few more slow statements from reading as slower.
// It is 0 when there are no samples (the layer was idle).
func mixPercentile(byKind [numKinds][]float64, p float64) float64 {
	w, sum := 0.0, 0.0
	for k, xs := range byKind {
		if len(xs) > 0 {
			w += kindShare[k]
			sum += kindShare[k] * percentile(sorted(xs), p)
		}
	}
	if w == 0 {
		return 0
	}
	return sum / w
}

// byKindOf groups per-trial latencies (each in stream order, kinds[i]
// the kind of statement i) by kind, pooling the trials.
func byKindOf(trials [][]float64, kinds []kind) (out [numKinds][]float64) {
	for _, lat := range trials {
		for i, l := range lat {
			out[kinds[i]] = append(out[kinds[i]], l)
		}
	}
	return out
}

// ofClass keeps the samples of the kinds of class c.
func ofClass(byKind [numKinds][]float64, c class) (out [numKinds][]float64) {
	for k, xs := range byKind {
		if kindClass[k] == c {
			out[k] = xs
		}
	}
	return out
}

// drift is the p50 of the last third of the open loop over that of its
// first, pooling each third over the trials (the same history
// position in each). Each latency is first divided by its kind's
// median, so a third that draws more slow statements does not read as
// growth. Thirds rather than tenths: a tenth of a trial's open loop is
// under a second long, so a short stall of the machine in it moved
// the ratio from run to run about three times as much.
func drift(trials [][]float64, kinds []kind) float64 {
	var mid [numKinds]float64
	for k, xs := range byKindOf(trials, kinds) {
		mid[k] = median(xs)
	}
	var first, last []float64
	for _, lat := range trials {
		k := max(1, len(lat)/3)
		for i := 0; i < k; i++ {
			j := len(lat) - k + i
			first = append(first, lat[i]/mid[kinds[i]])
			last = append(last, lat[j]/mid[kinds[j]])
		}
	}
	return median(last) / median(first)
}

// describeTail prints a class's sample count, median and highest
// supported tail percentile to standard error.
func describeTail(label string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	s := sorted(xs)
	p := tailPercentile(len(s))
	fmt.Fprintf(os.Stderr, "  %-10s n=%-7d p50=%.3fms", label, len(s), percentile(s, 50))
	if p > 50 {
		fmt.Fprintf(os.Stderr, " p%g=%.3fms", p, percentile(s, p))
	}
	fmt.Fprintln(os.Stderr)
}

// rowHash is FNV-1a over a row's kinds and rendered values.
func rowHash(t storage.Tuple) uint64 {
	h := uint64(14695981039346656037)
	add := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for _, v := range t {
		add(byte(v.Kind))
		s := v.String()
		for i := 0; i < len(s); i++ {
			add(s[i])
		}
		add(0)
	}
	return h
}

// fingerprint summarises a result: order-independent (a sum of row
// hashes) unless ordered, when row order changes it.
func fingerprint(rows []storage.Tuple, ordered bool) uint64 {
	var acc uint64
	for _, r := range rows {
		if ordered {
			acc *= 1099511628211
		}
		acc += rowHash(r)
	}
	return acc
}

// check validates one answer against the statement's oracle and, for
// an acknowledged write, records it in owned (the connection's state).
func check(s *stmt, rows []storage.Tuple, affected int, owned map[int64]int64) error {
	switch s.op {
	case opRows, opOrdered:
		if len(rows) != s.rows || fingerprint(rows, s.op == opOrdered) != s.want {
			return fmt.Errorf("%d rows, want %d (or values differ)", len(rows), s.rows)
		}
	case opGet:
		want, ok := owned[s.key]
		if !ok {
			return fmt.Errorf("key %d not acknowledged", s.key)
		}
		if len(rows) != 1 || len(rows[0]) != 2 || rows[0][0].Int != s.key || rows[0][1].Int != want {
			return fmt.Errorf("got %v, want [%d %d]", rows, s.key, want)
		}
	case opSet, opAdd:
		if affected != 1 {
			return fmt.Errorf("affected %d rows, want 1", affected)
		}
		owned[s.key] = s.val
	}
	return nil
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile is the highest candidate percentile with at least ten
// of n samples beyond it, or 0 when even the median lacks them.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank percentile of sorted xs (0 if empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted))/100-1e-9)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// span is one timed call, in nanoseconds since the recorder started.
// parent is the index of the span that caused it, -1 for a root.
type span struct {
	name       string
	parent     int
	stmt       int
	start, end int64
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, hi)
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

var prunedRE = regexp.MustCompile(`pruned=(\d+)/(\d+)`)

// parsePruned sums the "pruned=N/M" summaries an executed plan carries
// (one per filtered scan).
func parsePruned(plan string) (pruned, total int) {
	for _, m := range prunedRE.FindAllStringSubmatch(plan, -1) {
		n, _ := strconv.Atoi(m[1]) // \d+ always parses
		t, _ := strconv.Atoi(m[2])
		pruned += n
		total += t
	}
	return pruned, total
}
