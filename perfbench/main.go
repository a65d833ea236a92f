// Command perfbench is the repository benchmark: four workloads that
// load different layers of the runtime, end-to-end latency, throughput,
// set-up time and memory from untraced runs, and a per-layer split from
// a separate traced run. Every op's output is checked against an
// independent oracle. See README.md in this directory.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; every line before it is a
// human-readable report starting with a header.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // tiny inputs and few ops, for the smoke test
	root     string // checkout root: where examples/ lives
}

// instance is one set-up copy of a workload, ready to run ops.
type instance interface {
	// clients is how many load goroutines drive the instance.
	clients() int
	// op runs one operation on behalf of client c and checks its output
	// (mismatches go to c.mismatch). An error counts the op as failed.
	op(c *client) error
	// counters snapshots the layer counters; safe from client 0 while
	// other clients run.
	counters() counters
	// verify runs the checks that need the whole window (after it).
	verify(c *client) error
	// sizes describes inputs and working sets for the header.
	sizes() []string
	close()
}

type workload struct {
	name  string
	why   string
	setup func(o options) (instance, error)
}

var workloads = []workload{
	{"stencil-stream", "heat-2d Jacobi stream, one cached plan per flush: strided fused sweeps in vm", setupStencil},
	{"bulk-pricing", "Black-Scholes on 64Ki contiguous vectors: transcendental kernels, reduction epilogue, parallel sweeps", setupPricing},
	{"compile-churn", "zipfian mix of 256 batch structures with fresh constants: rewrite and compile on almost every flush", setupChurn},
	{"bhd-tenants", "bhd over loopback HTTP, two tenants (optimizer on/off) posting example listings and reading arrays", setupTenants},
}

// client is one load goroutine's private tally.
type client struct {
	id        int
	rng       *rand.Rand
	start     time.Time        // the window's start
	slice     float64          // slice length, s
	ops       [subWindows]hist // completed-op latency per slice, ms
	reads     [subWindows]hist // read latency per slice, ms
	attempted int
	failed    int
	shed      int // 503 responses
	firstHalf int // ops completed before the window's midpoint
	nWrong    int
	wrong     []string
	lastErr   error
	heap      [subWindows]hist // live heap sampled at op boundaries per slice, MiB
	lay       layers
}

func newClient(id int, seed int64) *client {
	return &client{id: id, rng: rand.New(rand.NewSource(seed*7919 + int64(id)))}
}

// slot is the slice of the window that time t falls in.
func (c *client) slot(t time.Time) int {
	if c.slice <= 0 {
		return 0
	}
	return min(int(t.Sub(c.start).Seconds()/c.slice), subWindows-1)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (c *client) read(d time.Duration) { c.reads[c.slot(time.Now())].add(ms(d)) }

func (c *client) mismatch(format string, args ...any) {
	c.nWrong++
	if len(c.wrong) < 5 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	}
}

// window is what one timed stretch of ops measured.
type window struct {
	elapsed   time.Duration
	dur       time.Duration // nominal length
	half      time.Duration
	clients   []*client
	start     counters
	mid       counters
	end       counters
	goBefore  goCounters
	goAfter   goCounters
	completed int
	first     int
	midTaken  bool // client 0 snapshotted mid; else mid = end
	// steal is the host's steal time in each slice, in clock ticks
	// summed over CPUs; stealOK is false where the kernel does not
	// report it.
	steal   [subWindows]int64
	stealOK bool
}

func (w *window) sum() *client {
	t := &client{}
	for _, c := range w.clients {
		for k := range t.ops {
			t.ops[k].merge(&c.ops[k])
			t.reads[k].merge(&c.reads[k])
		}
		t.attempted += c.attempted
		t.failed += c.failed
		t.shed += c.shed
		t.nWrong += c.nWrong
		t.wrong = append(t.wrong, c.wrong...)
		if c.lastErr != nil {
			t.lastErr = c.lastErr
		}
		for k := range t.heap {
			t.heap[k].merge(&c.heap[k])
		}
		t.lay.add(&c.lay)
	}
	return t
}

func (w *window) opsPerSec() float64 { return ratio(float64(w.completed), w.elapsed.Seconds()) }

// measure drives inst from its clients for d and collects every sample.
func measure(inst instance, d time.Duration, seed int64) *window {
	n := inst.clients()
	w := &window{half: d / 2, dur: d}
	for i := 0; i < n; i++ {
		w.clients = append(w.clients, newClient(i, seed))
	}
	w.goBefore = readGoCounters()
	w.start = inst.counters()
	start := time.Now()
	for _, c := range w.clients {
		c.start, c.slice = start, d.Seconds()/subWindows
	}
	mid, end := start.Add(d/2), start.Add(d)
	var wg sync.WaitGroup
	stealDone := sampleSteal(w, start)
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			heap := newHeapSampler()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				if c.id == 0 && !w.midTaken && !t0.Before(mid) {
					w.mid = inst.counters()
					w.midTaken = true
				}
				c.attempted++
				err := inst.op(c)
				t1 := time.Now()
				if err != nil {
					c.failed++
					c.lastErr = err
				} else {
					c.ops[c.slot(t1)].add(ms(t1.Sub(t0)))
					if t1.Before(mid) {
						c.firstHalf++
					}
				}
				c.heap[c.slot(t1)].add(float64(heap.read()) / (1 << 20))
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	stealDone()
	w.end = inst.counters()
	w.goAfter = readGoCounters()
	if !w.midTaken {
		w.mid = w.end
	}
	for _, c := range w.clients {
		for k := range c.ops {
			w.completed += c.ops[k].n
		}
		w.first += c.firstHalf
	}
	return w
}

// sampleSteal reads the host's cumulative steal time at start and at each
// slice boundary from a goroutine of its own, and fills w.steal. The
// returned function, called once every client has stopped, takes the
// last reading and waits for the goroutine to end. A failed reading
// repeats the one before it.
func sampleSteal(w *window, start time.Time) (done func()) {
	first, ok := readSteal()
	w.stealOK = ok
	if !ok {
		return func() {}
	}
	marks := make([]int64, subWindows+1)
	marks[0] = first
	reached := 0 // the last boundary read
	slice := seconds(w.dur.Seconds() / subWindows)
	exit := make(chan struct{})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		for k := 1; k < subWindows; k++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(k) * slice))):
			case <-exit:
				return
			}
			marks[k] = marks[k-1]
			if v, ok := readSteal(); ok {
				marks[k] = v
			}
			reached = k
		}
	}()
	return func() {
		close(exit)
		<-ended
		// Boundaries not reached take the final reading, so their steal
		// counts in the last slice that was read.
		last := marks[reached]
		if v, ok := readSteal(); ok {
			last = v
		}
		for k := reached + 1; k <= subWindows; k++ {
			marks[k] = last
		}
		for k := range w.steal {
			w.steal[k] = marks[k+1] - marks[k]
		}
	}
}

// runResult is the JSON object on the last line of output.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median over the quiet ones (see quietSet), and the last
// copy is the one measured.
const setupRepeats = 15

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	if _, err := os.Stat(o.root + "/examples"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s is not a bohrium checkout: %v\n", o.root, err)
		return 2
	}
	var res *runResult
	if o.trace {
		res, err = runTraced(wl, o, stdout)
	} else {
		res, err = runUntraced(wl, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny inputs (smoke test)")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return o, errors.New("bad flags")
	}
	o.trace = trace == 1
	return o, nil
}

// runUntraced sets the workload up setupRepeats times, measures the last
// copy for the whole window and reports the end-to-end metrics.
func runUntraced(wl *workload, o options, out io.Writer) (*runResult, error) {
	var setups []float64
	var setupSteal []int64
	stealOK := true
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		s0, ok0 := readSteal()
		t0 := time.Now()
		var err error
		inst, err = wl.setup(o)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		s1, ok1 := readSteal()
		setupSteal = append(setupSteal, s1-s0)
		stealOK = stealOK && ok0 && ok1
	}
	defer inst.close()
	w := measure(inst, seconds(o.seconds), o.seed)
	tot := w.sum()
	if err := inst.verify(tot); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	var quietSetups []float64
	for i, q := range quietSet(setupSteal, setups, stealOK) {
		if q {
			quietSetups = append(quietSetups, setups[i])
		}
	}
	setupMed := median(quietSetups)
	e := w.endToEnd()

	printHeader(out, wl, o, inst)
	fmt.Fprintf(out, "# set-ups: %d, %s s; steal %v ticks; setup_s is the median of the %d quiet ones\n",
		len(setups), fmtList(setups), setupSteal, len(quietSetups))
	e.print(out)
	printDrift(out, w)
	printOutcome(out, tot)

	m := map[string]metric{
		"setup_s":        {setupMed, "s"},
		"ops_per_s":      {e.opsPerSec, "ops/s"},
		"latency_p50_ms": {e.p50, "ms"},
		"latency_p99_ms": {e.p99, "ms"},
		"peak_heap_mib":  {e.peakHeap, "MiB"},
		"read_p50_ms":    {e.read50, "ms"},
	}
	printMetrics(out, m)
	return &runResult{Correct: tot.nWrong == 0, Attempted: tot.attempted, Failed: tot.failed, Metrics: m}, nil
}

// runTraced measures half the window untraced (throughput, counters,
// drift) and half on a fresh copy that replays every batch through the
// layers' entry points, and reports the per-layer metrics.
func runTraced(wl *workload, o options, out io.Writer) (*runResult, error) {
	half := seconds(o.seconds / 2)

	po := o
	po.trace = false
	plain, err := wl.setup(po)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	u := measure(plain, half, o.seed)
	ut := u.sum()
	err = plain.verify(ut)
	plain.close()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	to := o
	to.trace = true
	traced, err := wl.setup(to)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer traced.close()
	t := measure(traced, half, o.seed+1)
	tt := t.sum()
	if err := traced.verify(tt); err != nil {
		return nil, fmt.Errorf("traced verify: %w", err)
	}

	printHeader(out, wl, o, traced)
	fmt.Fprintf(out, "# untraced half: %d ops in %.2fs; traced half: %d ops in %.2fs\n",
		u.completed, u.elapsed.Seconds(), t.completed, t.elapsed.Seconds())
	fmt.Fprintf(out, "# replay plan cache: %d hits, %d misses\n", tt.lay.replayHits, tt.lay.replayMisses)
	printDrift(out, u)
	printOutcome(out, ut)
	printOutcome(out, tt)

	m := layerMetrics(u, t)
	printMetrics(out, m)
	return &runResult{
		Correct:   ut.nWrong == 0 && tt.nWrong == 0,
		Attempted: ut.attempted + tt.attempted,
		Failed:    ut.failed + tt.failed,
		Metrics:   m,
	}, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printHeader(out io.Writer, wl *workload, o options, inst instance) {
	h := describeHost()
	mode := "untraced (end-to-end metrics)"
	if o.trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g mode=%s tiny=%v\n", wl.name, o.seed, o.seconds, mode, o.tiny)
	fmt.Fprintf(out, "# why: %s\n", wl.why)
	fmt.Fprintf(out, "# commit %s, %s, GOMAXPROCS=%d, nproc=%d, load goroutines=%d\n",
		h.commit, h.goVersion, h.gomaxprocs, h.nproc, inst.clients())
	fmt.Fprintf(out, "# cpu: %s; L2 %s, L3 %s\n", h.cpuModel, h.l2, h.l3)
	for _, s := range inst.sizes() {
		fmt.Fprintf(out, "# size: %s\n", s)
	}
}

// printDrift compares the two halves of a window, so a leak or a cache
// that cools during the run shows.
func printDrift(out io.Writer, w *window) {
	d := drift(w)
	fmt.Fprintf(out, "# drift: ops_per_s %.1f -> %.1f, plan_hit_ratio %.4f -> %.4f, pool_hit_ratio %.4f -> %.4f\n",
		d.opsFirst, d.opsSecond, d.planFirst, d.planSecond, d.poolFirst, d.poolSecond)
}

func printOutcome(out io.Writer, t *client) {
	fmt.Fprintf(out, "# outcome: %d attempted, %d failed (failed_ratio %.4f), %d shed, %d wrong outputs\n",
		t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)), t.shed, t.nWrong)
	if t.lastErr != nil {
		fmt.Fprintf(out, "# last error: %v\n", t.lastErr)
	}
	for _, s := range t.wrong {
		fmt.Fprintf(out, "# WRONG: %s\n", s)
	}
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
