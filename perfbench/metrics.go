package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"bohrium/internal/vm"
)

// counters are the cumulative layer counters a window diffs.
type counters struct {
	vm          vm.Stats
	tokenHits   int64 // bhd token cache
	tokenMisses int64
}

func planHitRatio(a, b counters) float64 {
	h := b.vm.PlanHits - a.vm.PlanHits
	m := b.vm.PlanMisses - a.vm.PlanMisses
	return ratio(float64(h), float64(h+m))
}

func poolHitRatio(a, b counters) float64 {
	h := b.vm.PoolHits - a.vm.PoolHits
	m := b.vm.BuffersAllocated - a.vm.BuffersAllocated
	return ratio(float64(h), float64(h+m))
}

type driftStats struct {
	opsFirst, opsSecond   float64
	planFirst, planSecond float64
	poolFirst, poolSecond float64
}

// drift splits a window at its midpoint: throughput and the two cache
// hit ratios of each half.
func drift(w *window) driftStats {
	firstDur := w.half.Seconds()
	return driftStats{
		opsFirst:   ratio(float64(w.first), firstDur),
		opsSecond:  ratio(float64(w.completed-w.first), w.elapsed.Seconds()-firstDur),
		planFirst:  planHitRatio(w.start, w.mid),
		planSecond: planHitRatio(w.mid, w.end),
		poolFirst:  poolHitRatio(w.start, w.mid),
		poolSecond: poolHitRatio(w.mid, w.end),
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerMetrics builds the per-layer report: counts and ratios from the
// untraced window u, time splits from the traced window t.
func layerMetrics(u, t *window) map[string]metric {
	ut, tt := u.sum(), t.sum()
	l := &tt.lay
	ops := float64(t.completed)
	uops := float64(u.completed)
	perOp := func(d time.Duration) float64 { return ratio(us(d), ops) }
	reqs := float64(l.requests)
	dv := func(f func(s vm.Stats) int) float64 { return float64(f(u.end.vm) - f(u.start.vm)) }
	d := drift(u)

	// In process the flush runs inside the op's read; what the replayed
	// layers and a second, flush-free read do not account for is the
	// front end's own share.
	flushOther := 0.0
	if l.flush > 0 {
		flushOther = perOp(l.flush - l.replayed() - l.read)
	}
	th := u.end.tokenHits - u.start.tokenHits
	tm := u.end.tokenMisses - u.start.tokenMisses

	return map[string]metric{
		"bohrium.record_us":      {perOp(l.record), "us"},
		"bohrium.flush_us":       {perOp(l.flush), "us"},
		"bohrium.read_us":        {perOp(l.read), "us"},
		"bohrium.flush_other_us": {flushOther, "us"},

		"bytecode.fingerprint_us": {perOp(l.fingerprint), "us"},
		"bytecode.parse_us":       {perOp(l.parse), "us"},
		"bytecode.validate_us":    {perOp(l.validate), "us"},

		"rewrite.optimize_us":    {perOp(l.optimize), "us"},
		"rewrite.rules_applied":  {ratio(float64(l.rulesApplied), ops), "count/op"},
		"rewrite.instrs_ratio":   {ratio(float64(l.instrsRun), float64(l.instrsRecorded)), "ratio"},
		"backend.lookup_us":      {perOp(l.lookup), "us"},
		"backend.compile_us":     {perOp(l.compile), "us"},
		"backend.insert_us":      {perOp(l.insert), "us"},
		"backend.execute_us":     {perOp(l.execute), "us"},
		"trace.replay_hit_ratio": {ratio(float64(l.replayHits), float64(l.replayHits+l.replayMisses)), "ratio"},

		"vm.plan_hit_ratio":         {planHitRatio(u.start, u.end), "ratio"},
		"vm.plan_evictions_per_kop": {ratio(1000*dv(func(s vm.Stats) int { return s.PlanEvictions }), uops), "1/kop"},
		"vm.sweeps_per_op":          {ratio(dv(func(s vm.Stats) int { return s.Sweeps }), uops), "count/op"},
		"vm.fused_ratio": {ratio(dv(func(s vm.Stats) int { return s.FusedInstructions }),
			dv(func(s vm.Stats) int { return s.Instructions })), "ratio"},
		"vm.fused_reductions_per_op": {ratio(dv(func(s vm.Stats) int { return s.FusedReductions }), uops), "count/op"},
		"vm.pool_hit_ratio":          {poolHitRatio(u.start, u.end), "ratio"},
		"vm.bytes_per_op_computed":   {ratio(float64(l.bytesComputed), ops), "B"},
		"vm.gbs_computed":            {ratio(float64(l.bytesComputed), float64(l.execute)), "GB/s"},

		"server.handler_us":      {ratio(us(l.handler), reqs), "us"},
		"server.transport_us":    {ratio(us(l.roundTrip-l.handler), reqs), "us"},
		"server.response_bytes":  {ratio(float64(l.responseBytes), reqs), "B"},
		"server.shed_ratio":      {ratio(float64(ut.shed), float64(ut.attempted)), "ratio"},
		"server.token_hit_ratio": {ratio(float64(th), float64(th+tm)), "ratio"},

		"go.alloc_kib_per_op":  {ratio(float64(u.goAfter.allocBytes-u.goBefore.allocBytes)/1024, uops), "KiB"},
		"go.gc_cycles_per_kop": {ratio(1000*float64(u.goAfter.gcCycles-u.goBefore.gcCycles), uops), "1/kop"},

		"trace.overhead_ratio": {ratio(t.opsPerSec(), u.opsPerSec()), "ratio"},

		"drift.ops_per_s_first":       {d.opsFirst, "ops/s"},
		"drift.ops_per_s_second":      {d.opsSecond, "ops/s"},
		"drift.plan_hit_ratio_first":  {d.planFirst, "ratio"},
		"drift.plan_hit_ratio_second": {d.planSecond, "ratio"},
		"drift.pool_hit_ratio_first":  {d.poolFirst, "ratio"},
		"drift.pool_hit_ratio_second": {d.poolSecond, "ratio"},
	}
}

// subWindows is how many equal slices a window is cut into. Each
// end-to-end metric is the median of its values over the window's quiet
// slices, so a burst of interference from outside the process, which on
// a shared host lasts seconds, moves at most a minority of them, and a
// tail percentile does not hang on the few samples beyond it in one
// stretch of the run. At 50 s, eight slices leave each at least ten
// samples beyond its p99 on every gated workload.
const subWindows = 8

// stealLimit is the share of a slice's CPU time the hypervisor may give
// to other machines (steal) before the slice stops counting as quiet.
// A stolen CPU stalls whichever op runs on it for milliseconds, which
// moves tail latency far more than the median; on a shared host such
// spells last from seconds to most of a run.
const stealLimit = 0.01

// minQuiet is the fewest slices the metrics are taken over, enough for a
// median when a steal spell covers most of a run.
const minQuiet = 3

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// endToEnd holds a window's end-to-end statistics and the per-slice
// values behind them.
type endToEnd struct {
	opsPerSec, p50, p99, read50, peakHeap float64
	quiet                                 int // slices the metrics are taken over
	slices                                [subWindows]struct {
		ops, reads                    int
		rate, p50, p99, r50, peakHeap float64
		steal                         int64
		quiet                         bool
	}
}

// quietSet marks the spans (the slices of a window, or the set-ups)
// whose steal stays within stealLimit of their CPU time; secs are their
// lengths. When fewer than minQuiet do, it keeps the minQuiet with the
// least steal, earliest first among equals. Without a steal figure every
// span is quiet.
func quietSet(steal []int64, secs []float64, stealOK bool) []bool {
	quiet := make([]bool, len(steal))
	n := 0
	for k, st := range steal {
		limit := int64(stealLimit * secs[k] * clockTicks * float64(runtime.NumCPU()))
		quiet[k] = !stealOK || st <= limit
		if quiet[k] {
			n++
		}
	}
	keep := min(minQuiet, len(steal))
	if n >= keep {
		return quiet
	}
	order := make([]int, len(steal))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return steal[order[i]] < steal[order[j]] })
	clear(quiet)
	for _, k := range order[:keep] {
		quiet[k] = true
	}
	return quiet
}

func (w *window) endToEnd() *endToEnd {
	tot := w.sum()
	slice := w.dur.Seconds() / subWindows
	e := &endToEnd{}
	secs := make([]float64, subWindows)
	for k := range secs {
		secs[k] = slice
	}
	quiet := quietSet(w.steal[:], secs, w.stealOK)
	var rate, p50, p99, r50, heap []float64
	for k := range e.slices {
		sl := &e.slices[k]
		d := slice
		if k == subWindows-1 {
			d = w.elapsed.Seconds() - slice*(subWindows-1) // the last op may overrun
		}
		sl.ops, sl.reads = tot.ops[k].n, tot.reads[k].n
		sl.rate = ratio(float64(sl.ops), d)
		sl.p50, sl.p99 = tot.ops[k].quantile(0.50), tot.ops[k].quantile(0.99)
		sl.r50 = tot.reads[k].quantile(0.50)
		sl.peakHeap = tot.heap[k].quantile(0.95)
		sl.steal, sl.quiet = w.steal[k], quiet[k]
		if !sl.quiet {
			continue
		}
		e.quiet++
		rate, p50, p99 = append(rate, sl.rate), append(p50, sl.p50), append(p99, sl.p99)
		r50, heap = append(r50, sl.r50), append(heap, sl.peakHeap)
	}
	e.opsPerSec, e.p50, e.p99 = median(rate), median(p50), median(p99)
	e.read50, e.peakHeap = median(r50), median(heap)
	return e
}

// print writes the per-slice values, the sample counts behind each
// percentile, and which slices the metrics are taken over.
func (e *endToEnd) print(out io.Writer) {
	for k, sl := range e.slices {
		mark := "quiet"
		if !sl.quiet {
			mark = "left out"
		}
		fmt.Fprintf(out, "# slice %d/%d: %.1f ops/s; p50 %.4f ms, p99 %.4f ms of %d ops (%d beyond p99); read p50 %.4f ms of %d reads; peak heap %.3f MiB; steal %d ticks, %s\n",
			k+1, subWindows, sl.rate, sl.p50, sl.p99, sl.ops, sl.ops-int(math.Ceil(0.99*float64(sl.ops))), sl.r50, sl.reads, sl.peakHeap, sl.steal, mark)
	}
	fmt.Fprintf(out, "# each end-to-end metric but setup_s is the median over the %d quiet slices of %d (steal at most %g of a slice's CPU time)\n",
		e.quiet, subWindows, stealLimit)
}
