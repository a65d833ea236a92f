package vm

import (
	"fmt"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// heat2DListing is one Jacobi step of the heat-2d stencil on an n×n grid
// a0, in the committed heatdiffusion listing's shape: five shifted
// interior windows (rows of n-2 elements, n apart) fuse into one sweep
// over the contiguous scratch grid a1, and a single BH_IDENTITY writes the
// interior back.
func heat2DListing(n int) string {
	m := n - 2
	in := func(off int) string { return fmt.Sprintf("a0 [%d:%d:%d][0:%d:1]", off, off+m*n, n, m) }
	a1 := fmt.Sprintf("a1 [0:%d:%d][0:%d:1]", m*m, m, m)
	return fmt.Sprintf(`.reg a0 float64 %d
.reg a1 float64 %d
.in a0
BH_ADD %[3]s %[4]s %[5]s
BH_ADD %[3]s %[3]s %[6]s
BH_ADD %[3]s %[3]s %[7]s
BH_ADD %[3]s %[3]s %[8]s
BH_MULTIPLY %[3]s %[3]s 0.2
BH_IDENTITY %[4]s %[3]s
BH_SYNC a0
`, n*n, m*m, a1, in(n+1), in(1), in(2*n+1), in(n), in(n+2))
}

// newPlan compiles src on a fresh machine with register 0 bound to n
// random float64s, and runs it once to warm the scratch and buffer pools.
func newPlan(tb testing.TB, cfg Config, src string, n int) (*Machine, *Plan) {
	tb.Helper()
	p, err := bytecode.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	m := New(cfg)
	tb.Cleanup(m.Close)
	x := tensor.MustNew(tensor.Float64, tensor.MustShape(n))
	x.FillRandom(5, 0, 1)
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

// TestStridedSweepSteadyStateAllocs guards the row-wise sweep: a warm,
// cached heat-2d plan allocates the same small constant at 32×32 and at
// 256×256 — nothing scales with the number of rows or blocks.
func TestStridedSweepSteadyStateAllocs(t *testing.T) {
	cfg := Config{Workers: 2, Fusion: true, ParallelThreshold: 512}
	allocs := map[int]float64{}
	for _, n := range []int{32, 256} {
		m, pl := newPlan(t, cfg, heat2DListing(n), n*n)
		before := m.Stats().FusedInstructions
		allocs[n] = testing.AllocsPerRun(20, func() {
			if err := pl.Execute(m); err != nil {
				t.Fatal(err)
			}
		})
		if m.Stats().FusedInstructions == before {
			t.Fatalf("%d×%d: the stencil did not fuse", n, n)
		}
	}
	t.Logf("allocs per run: %v at 32×32, %v at 256×256", allocs[32], allocs[256])
	const maxAllocs = 32
	if allocs[256] != allocs[32] || allocs[256] > maxAllocs {
		t.Errorf("allocs per run: %v at 32×32, %v at 256×256; want equal and <= %d",
			allocs[32], allocs[256], maxAllocs)
	}
}

// BenchmarkStridedCluster times one warm heat-2d Jacobi step on a
// 128×128 grid (the stencil-stream workload's shape): a fused strided
// cluster plus a strided single instruction.
func BenchmarkStridedCluster(b *testing.B) {
	const n = 128
	m, pl := newPlan(b, Config{Fusion: true}, heat2DListing(n), n*n)
	b.ReportAllocs()
	b.SetBytes(int64((n - 2) * (n - 2) * 8))
	for b.Loop() {
		if err := pl.Execute(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpilogueInteriorAxis times warm reduction epilogues whose
// lines are not contiguous runs of the producer's layout order: a sum
// down the columns (axis 0) of 200×200, and an argmin along the rows of
// 3×4096, which folds (value, index) pairs on the chunk-axis strategy.
func BenchmarkEpilogueInteriorAxis(b *testing.B) {
	cases := []struct {
		name string
		src  string
		n    int
	}{
		{"sum-axis0-200x200", `.reg a0 float64 40000
.reg a1 float64 40000
.reg a2 float64 200
.in a0
BH_MULTIPLY a1 [0:40000:200][0:200:1] a0 [0:40000:200][0:200:1] 1.5
BH_ADD a1 [0:40000:200][0:200:1] a1 [0:40000:200][0:200:1] 0.25
BH_ADD_REDUCE a2 [0:200:1] a1 [0:40000:200][0:200:1] axis=0
BH_FREE a1
BH_SYNC a2
`, 40000},
		{"argmin-3x4096", `.reg a0 float64 12288
.reg a1 float64 12288
.reg a2 int64 3
.in a0
BH_SUBTRACT a1 [0:12288:4096][0:4096:1] a0 [0:12288:4096][0:4096:1] 0.5
BH_ABSOLUTE a1 [0:12288:4096][0:4096:1] a1 [0:12288:4096][0:4096:1]
BH_ARGMIN_REDUCE a2 [0:3:1] a1 [0:12288:4096][0:4096:1] axis=1
BH_FREE a1
BH_SYNC a2
`, 12288},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m, pl := newPlan(b, Config{Fusion: true}, c.src, c.n)
			if m.Stats().FusedReductions == 0 {
				b.Fatal("the reduction did not fold into an epilogue")
			}
			b.ReportAllocs()
			b.SetBytes(int64(c.n * 8))
			for b.Loop() {
				if err := pl.Execute(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
