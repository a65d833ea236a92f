package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/vm"
)

// layers accumulates the traced run's per-layer time and work. Times are
// nanosecond sums over the window; the report divides by the op count.
type layers struct {
	record, flush, read              time.Duration // bohrium front end
	fingerprint, parse, validate     time.Duration // bytecode
	optimize                         time.Duration // rewrite
	lookup, compile, insert, execute time.Duration // backend
	handler, roundTrip               time.Duration // server, bhd only
	rulesApplied                     int
	instrsRecorded, instrsRun        int
	bytesComputed                    int64
	replayHits, replayMisses         int
	requests                         int
	responseBytes                    int64
}

func (l *layers) add(o *layers) {
	l.record += o.record
	l.flush += o.flush
	l.read += o.read
	l.fingerprint += o.fingerprint
	l.parse += o.parse
	l.validate += o.validate
	l.optimize += o.optimize
	l.lookup += o.lookup
	l.compile += o.compile
	l.insert += o.insert
	l.execute += o.execute
	l.handler += o.handler
	l.roundTrip += o.roundTrip
	l.rulesApplied += o.rulesApplied
	l.instrsRecorded += o.instrsRecorded
	l.instrsRun += o.instrsRun
	l.bytesComputed += o.bytesComputed
	l.replayHits += o.replayHits
	l.replayMisses += o.replayMisses
	l.requests += o.requests
	l.responseBytes += o.responseBytes
}

// replayed is the part of a flush the replay accounts for layer by layer.
func (l *layers) replayed() time.Duration {
	return l.fingerprint + l.lookup + l.optimize + l.compile + l.insert + l.execute
}

// replaySalt moves the replay's plan-cache entries into a partition of
// their own: the replay shares the engine (worker pool, buffer pool, plan
// cache) with the path it shadows but must neither serve that path's
// plans nor be served by them, or both would report the other's hits.
var replaySalt = bytecode.Fingerprint(sha256.Sum256([]byte("perfbench replay")))

// replayer re-runs captured batches through the public entry points in
// the order the front end calls them — fingerprint, lookup, on a miss
// optimize, compile and insert, then execute — on a backend of its own
// opened on the shadowed engine, timing each call.
type replayer struct {
	be   backend.Backend
	pipe *rewrite.Pipeline // nil: batches run as recorded
	// optimizeFirst mirrors bhd, which optimizes every batch before the
	// plan lookup; the front end optimizes only on a miss.
	optimizeFirst bool
	// parametric mirrors the caller's cache-key rule: the front end keys
	// untouched batches by structure alone, bhd always by value too.
	parametric bool
}

// newReplayer opens an in-process backend on eng with the default
// session configuration.
func newReplayer(eng *vm.Engine, r replayer, optimize bool) (*replayer, error) {
	be, err := backend.Open("", eng, backend.Config{VM: vm.Config{Fusion: true}})
	if err != nil {
		return nil, fmt.Errorf("open replay backend: %w", err)
	}
	r.be = be
	if optimize {
		r.pipe = rewrite.Default()
	}
	return &r, nil
}

func (r *replayer) close() { r.be.Close() }

// optimize runs the rewrite pipeline on p, charging it to l.
func (r *replayer) optimize(p *bytecode.Program, l *layers) (*bytecode.Program, int, error) {
	if r.pipe == nil {
		return p, 0, nil
	}
	t0 := time.Now()
	opt, rep, err := r.pipe.Optimize(p)
	l.optimize += time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("replay optimize: %w", err)
	}
	l.rulesApplied += rep.TotalApplied()
	return opt, rep.TotalApplied(), nil
}

// run replays one batch and charges its calls to l.
func (r *replayer) run(p *bytecode.Program, l *layers) error {
	recorded := p.Len()
	if r.optimizeFirst {
		var err error
		if p, _, err = r.optimize(p, l); err != nil {
			return err
		}
	}
	t0 := time.Now()
	fp := p.Fingerprint()
	consts := p.Constants()
	t1 := time.Now()
	key := bytecode.SequenceFingerprint(fp, replaySalt)
	plan, _, hit := r.be.LookupPlan(key, consts, nil)
	t2 := time.Now()
	l.fingerprint += t1.Sub(t0)
	l.lookup += t2.Sub(t1)
	l.instrsRecorded += recorded
	if hit {
		l.replayHits++
	} else {
		l.replayMisses++
		prog, applied := p, 0
		if !r.optimizeFirst {
			var err error
			if prog, applied, err = r.optimize(p, l); err != nil {
				return err
			}
		}
		parametric := r.parametric && applied == 0
		if len(prog.Instrs) > 0 {
			pruneInputs(prog)
			t4 := time.Now()
			var err error
			plan, err = r.be.Compile(prog)
			l.compile += time.Since(t4)
			if err != nil {
				return fmt.Errorf("replay compile: %w", err)
			}
		}
		t5 := time.Now()
		r.be.InsertPlan(key, consts, parametric, plan, nil)
		l.insert += time.Since(t5)
	}
	if plan == nil {
		return nil
	}
	t6 := time.Now()
	err := r.be.Execute(plan)
	l.execute += time.Since(t6)
	if err != nil {
		return fmt.Errorf("replay execute: %w", err)
	}
	run := plan.Program()
	l.instrsRun += run.Len()
	l.bytesComputed += computedBytes(run)
	return nil
}

// computedBytes models the traffic of a program: operand dtype size ×
// view size for every register operand of every non-system instruction.
// It is computed from the program, not measured: fused temporaries that
// never materialize still count.
func computedBytes(p *bytecode.Program) int64 {
	var n int64
	count := func(o bytecode.Operand) {
		if !o.IsReg() {
			return
		}
		if info, ok := p.Reg(o.Reg); ok {
			n += int64(info.DType.Size() * o.View.Size())
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op.Info().Kind == bytecode.KindSystem {
			continue
		}
		count(in.Out)
		for _, o := range in.Inputs() {
			count(o)
		}
	}
	return n
}

// markOutputs declares what the front end would: every register whose
// last event in the batch is a write (not a BH_FREE) is observable
// afterwards. The workloads free each temporary in the batch that
// creates it, so this matches the front end's kept-or-leaf rule for them.
func markOutputs(p *bytecode.Program) {
	last := map[bytecode.RegID]bool{}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if !in.Out.IsReg() {
			continue
		}
		switch {
		case in.Op == bytecode.OpFree:
			last[in.Out.Reg] = false
		case in.WritesReg(in.Out.Reg):
			last[in.Out.Reg] = true
		}
	}
	p.Outputs = p.Outputs[:0]
	for r := range p.Regs {
		if last[bytecode.RegID(r)] {
			p.MarkOutput(bytecode.RegID(r))
		}
	}
}

// pruneInputs drops input declarations no instruction references, as the
// front end does before compiling.
func pruneInputs(p *bytecode.Program) {
	used := map[bytecode.RegID]bool{}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Out.IsReg() {
			used[in.Out.Reg] = true
		}
		for _, o := range in.Inputs() {
			if o.IsReg() {
				used[o.Reg] = true
			}
		}
	}
	kept := p.Inputs[:0]
	for _, r := range p.Inputs {
		if used[r] {
			kept = append(kept, r)
		}
	}
	p.Inputs = kept
}
