package vm

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// linearEpilogueListing is a contiguous producer chain folded into a
// full reduction over n float64s: a1 is freed after the fold, so it lives
// only in scratch tiles. a0 is the bound input.
func linearEpilogueListing(n int) string {
	return fmt.Sprintf(`.reg a0 float64 %[1]d
.reg a1 float64 %[1]d
.reg a2 float64 1
.in a0
BH_MULTIPLY a1 a0 a0
BH_ADD a1 a1 0.5
BH_SQRT a1 a1
BH_MULTIPLY a1 a1 a0
BH_ADD_REDUCE a2 a1 axis=0
BH_FREE a1
BH_SYNC a2
`, n)
}

// newLinearEpilogue compiles linearEpilogueListing(n) on a fresh machine
// with its input bound, and runs it once to warm the scratch pool.
func newLinearEpilogue(tb testing.TB, cfg Config, n int) (*Machine, *Plan) {
	tb.Helper()
	p, err := bytecode.Parse(linearEpilogueListing(n))
	if err != nil {
		tb.Fatal(err)
	}
	m := New(cfg)
	tb.Cleanup(m.Close)
	x := tensor.MustNew(tensor.Float64, tensor.MustShape(n))
	x.FillRandom(3, 0, 1)
	m.Bind(0, x)
	pl, err := m.Compile(p)
	if err != nil {
		tb.Fatal(err)
	}
	if err := pl.Execute(m); err != nil {
		tb.Fatal(err)
	}
	return m, pl
}

// TestLinearEpilogueSteadyStateAllocs guards the allocation-free hot
// path: once warm, executing a cached plan whose contiguous epilogue folds
// 65,536 float64s on the chunk-axis strategy allocates a small constant —
// the same count as at 8,192 elements, so nothing scales with the number
// of chunks or blocks (no per-block closures, no per-worker tiles).
func TestLinearEpilogueSteadyStateAllocs(t *testing.T) {
	cfg := Config{Workers: 2, Fusion: true, ParallelThreshold: 4096}
	allocs := map[int]float64{}
	for _, n := range []int{8192, 65536} {
		m, pl := newLinearEpilogue(t, cfg, n)
		var epi *epiPlan
		for i := range pl.epis {
			if pl.epis[i] != nil {
				epi = pl.epis[i]
			}
		}
		if epi == nil {
			t.Fatalf("N=%d: the fold did not plan as an epilogue", n)
		}
		if s := m.sweepStrategyFor(epi.red.Out.View, epi.lines, epi.axLen); s != sweepChunkAxis {
			t.Fatalf("N=%d: strategy %d, want sweepChunkAxis", n, s)
		}
		before := m.Stats().FusedReductions
		allocs[n] = testing.AllocsPerRun(20, func() {
			if err := pl.Execute(m); err != nil {
				t.Fatal(err)
			}
		})
		if m.Stats().FusedReductions == before {
			t.Fatalf("N=%d: the epilogue did not run", n)
		}
	}
	t.Logf("allocs per run: %v at N=8192, %v at N=65536", allocs[8192], allocs[65536])
	const maxAllocs = 40
	if allocs[65536] != allocs[8192] || allocs[65536] > maxAllocs {
		t.Errorf("allocs per run: %v at N=8192, %v at N=65536; want equal and <= %d",
			allocs[8192], allocs[65536], maxAllocs)
	}
}

// scratchCase is one program of the scratch-reuse differential.
type scratchCase struct {
	name string
	src  string
	out  bytecode.RegID
	n    int  // output elements
	bind bool // alias case: bind one shared tensor to registers 0 and 2
}

func scratchCases() []scratchCase {
	return []scratchCase{
		{name: "float64-chunk-axis", out: 2, n: 1, src: `.reg a0 float64 65536
.reg a1 float64 65536
.reg a2 float64 1
BH_RANDOM a0 11 0
BH_MULTIPLY a1 a0 a0
BH_ADD a1 a1 0.5
BH_SQRT a1 a1
BH_ADD_REDUCE a2 a1 axis=0
BH_FREE a1
BH_SYNC a2
`},
		{name: "float32-split-outputs", out: 2, n: 256, src: `.reg a0 float32 131072
.reg a1 float32 131072
.reg a2 float32 256
BH_RANDOM a0 12 0
BH_MULTIPLY a1 [0:131072:512][0:512:1] a0 [0:131072:512][0:512:1] 1.5
BH_ADD a1 [0:131072:512][0:512:1] a1 [0:131072:512][0:512:1] a0 [0:131072:512][0:512:1]
BH_ADD_REDUCE a2 [0:256:1] a1 [0:131072:512][0:512:1] axis=1
BH_FREE a1
BH_SYNC a2
`},
		{name: "int64-serial", out: 2, n: 1, src: `.reg a0 int64 1000
.reg a1 int64 1000
.reg a2 int64 1
BH_RANGE a0
BH_MULTIPLY a1 a0 3
BH_ADD a1 a1 1
BH_ADD_REDUCE a2 a1 axis=0
BH_FREE a1
BH_SYNC a2
`},
		{name: "int64-chunk-axis-live-producer", out: 2, n: 1, src: `.reg a0 int64 50000
.reg a1 int64 50000
.reg a2 int64 1
BH_RANGE a0
BH_MULTIPLY a1 a0 a0
BH_SUBTRACT a1 a1 7
BH_ADD_REDUCE a2 a1 axis=0
BH_SYNC a1
BH_SYNC a2
`},
		{name: "float64-serial-short-lines", out: 2, n: 300, src: `.reg a0 float64 15000
.reg a1 float64 15000
.reg a2 float64 300
BH_RANDOM a0 13 0
BH_MULTIPLY a1 [0:15000:50][0:50:1] a0 [0:15000:50][0:50:1] 2
BH_MAXIMUM a1 [0:15000:50][0:50:1] a1 [0:15000:50][0:50:1] 0.25
BH_MAXIMUM_REDUCE a2 [0:300:1] a1 [0:15000:50][0:50:1] axis=1
BH_FREE a1
BH_SYNC a2
`},
		{name: "float64-argmin", out: 2, n: 200, src: `.reg a0 float64 100000
.reg a1 float64 100000
.reg a2 int64 200
BH_RANDOM a0 14 0
BH_SUBTRACT a1 [0:100000:500][0:500:1] a0 [0:100000:500][0:500:1] 0.5
BH_MULTIPLY a1 [0:100000:500][0:500:1] a1 [0:100000:500][0:500:1] a1 [0:100000:500][0:500:1]
BH_ARGMIN_REDUCE a2 [0:200:1] a1 [0:100000:500][0:500:1] axis=1
BH_FREE a1
BH_SYNC a2
`},
		{name: "alias-fallback", out: 2, n: 1001, bind: true, src: `.reg a0 float64 1000
.reg a1 float64 1000
.reg a2 float64 1001
.in a0
.in a2
BH_MULTIPLY a1 a0 a0
BH_ADD_REDUCE a2 [1000:1001:1] a1 axis=0
BH_FREE a1
BH_SYNC a2
`},
	}
}

// runScratchCase runs c on m and returns its output's bit patterns. The
// machine's registers are released afterwards, so the next case may
// declare the same registers anew.
func runScratchCase(m *Machine, c scratchCase) ([]uint64, error) {
	p, err := bytecode.Parse(c.src)
	if err != nil {
		return nil, err
	}
	if c.bind {
		shared := tensor.MustNew(tensor.Float64, tensor.MustShape(1001))
		shared.FillRandom(7, 0, 1)
		m.Bind(0, shared)
		m.Bind(2, shared)
	}
	defer m.ReleaseRegisters()
	if err := m.Run(p); err != nil {
		return nil, err
	}
	tt, ok := m.Tensor(c.out, tensor.NewView(tensor.MustShape(c.n)))
	if !ok {
		return nil, fmt.Errorf("output %s has no buffer", c.out)
	}
	bits := make([]uint64, c.n)
	for i := range bits {
		if tt.Buf.DType().IsFloat() {
			bits[i] = math.Float64bits(tt.Buf.Get(i))
		} else {
			bits[i] = uint64(tt.Buf.GetInt(i))
		}
	}
	return bits, nil
}

// TestScratchReuseDifferential interleaves epilogue programs of
// different dtypes, tile sizes and strategies — plus an alias fallback —
// across concurrent sessions on one engine, whose scratch pool they all
// share. Every result must be bit-identical to the same program on a
// fresh engine: a reused tile never leaks values or sizes between sweeps.
func TestScratchReuseDifferential(t *testing.T) {
	cases := scratchCases()
	cfg := Config{Workers: 2, Fusion: true}

	want := make([][]uint64, len(cases))
	strategies := map[sweepStrategy]bool{}
	for i, c := range cases {
		m := New(cfg)
		bits, err := runScratchCase(m, c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = bits
		p, _ := bytecode.Parse(c.src)
		pl, err := m.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, epi := range pl.epis {
			if epi != nil {
				strategies[m.sweepStrategyFor(epi.red.Out.View, epi.lines, epi.axLen)] = true
			}
		}
		m.Close()
	}
	for _, s := range []sweepStrategy{sweepSerial, sweepSplitOutputs, sweepChunkAxis} {
		if !strategies[s] {
			t.Fatalf("no case runs the epilogue with strategy %d", s)
		}
	}

	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	const sessions, rounds = 3, 3
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			m := eng.NewMachine(cfg)
			defer m.Close()
			for r := 0; r < rounds; r++ {
				for k := range cases {
					i := (k + s + r) % len(cases)
					got, err := runScratchCase(m, cases[i])
					if err != nil {
						t.Errorf("session %d round %d %s: %v", s, r, cases[i].name, err)
						return
					}
					for e := range got {
						if got[e] != want[i][e] {
							t.Errorf("session %d round %d %s[%d]: %#x, fresh engine %#x",
								s, r, cases[i].name, e, got[e], want[i][e])
							break
						}
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if st := eng.Stats(); st.FusedReductions == 0 {
		t.Error("no epilogue ran on the shared engine")
	}
}

// TestScratchPoolKeepsLargestTiles: a full free list trades its smallest
// tile for a larger returned one, so a stream of small sweeps cannot
// leave every larger sweep allocating fresh tiles.
func TestScratchPoolKeepsLargestTiles(t *testing.T) {
	sp := newScratchPool()
	small := make([]tensor.Buffer, maxScratchPerDType)
	dts := make([]tensor.DType, maxScratchPerDType)
	for i := range dts {
		dts[i] = tensor.Float64
	}
	sp.take(dts, 16, small)
	sp.put(small)
	big := []tensor.Buffer{tensor.MustBuffer(tensor.Float64, 1024)}
	want := big[0]
	sp.put(big)
	got := make([]tensor.Buffer, 1)
	sp.take(dts[:1], 1024, got)
	if got[0] != want {
		t.Fatal("a full list dropped the only tile large enough")
	}
	if n := len(sp.free[tensor.Float64]); n != maxScratchPerDType-1 {
		t.Fatalf("list holds %d tiles, want %d", n, maxScratchPerDType-1)
	}
}

// TestRedeclaredRegisterIsAnError pins the register-file guard: running
// the blackscholes listing and then the heatdiffusion listing on one
// machine reuses register a0 — a float64[1024] buffer — as float64[256].
// Every execution path must return a wrapped error naming the register,
// never panic, and leave the machine usable once its registers are
// released.
func TestRedeclaredRegisterIsAnError(t *testing.T) {
	parse := func(path string) *bytecode.Program {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bytecode.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, cfg := range []Config{{Fusion: true}, {Fusion: false}} {
		t.Run(fmt.Sprintf("fusion=%v", cfg.Fusion), func(t *testing.T) {
			heat := parse("../../examples/heatdiffusion/listing.bh")
			fresh := New(cfg)
			defer fresh.Close()
			if err := fresh.Run(heat); err != nil {
				t.Fatal(err)
			}

			m := New(cfg)
			defer m.Close()
			if err := m.Run(parse("../../examples/blackscholes/listing.bh")); err != nil {
				t.Fatal(err)
			}
			err := m.Run(heat)
			if err == nil {
				t.Fatal("redeclared register ran")
			}
			if !errors.Is(err, ErrExec) || !strings.Contains(err.Error(), "register a0 is declared float64[256] but holds a float64[1024] buffer") {
				t.Fatalf("error = %v", err)
			}

			// A wrong dtype is refused the same way.
			m.ReleaseRegisters()
			if err := m.Run(parse("../../examples/blackscholes/listing.bh")); err != nil {
				t.Fatal(err)
			}
			p, err := bytecode.Parse(".reg a0 int64 1\nBH_IDENTITY a0 1\nBH_SYNC a0\n")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(p); err == nil || !strings.Contains(err.Error(), "register a0 is declared int64[1] but holds a float64[1024] buffer") {
				t.Fatalf("dtype mismatch: error = %v", err)
			}

			// Released, the registers take the new declarations.
			m.ReleaseRegisters()
			if err := m.Run(heat); err != nil {
				t.Fatal(err)
			}
			compareRegs(t, fresh, m, 0, 256, 0)
		})
	}
}

// BenchmarkLinearEpilogue times one warm execution of a cached plan whose
// contiguous producer chain folds into a full float64 reduction through
// the blockwise epilogue. Allocations are reported: a warm run allocates
// a small constant at every N.
func BenchmarkLinearEpilogue(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m, pl := newLinearEpilogue(b, Config{Fusion: true}, n)
			b.ReportAllocs()
			b.SetBytes(int64(n * 8))
			for b.Loop() {
				if err := pl.Execute(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
