package bytecode

import (
	"fmt"
	"testing"

	"bohrium/internal/tensor"
)

// fpProg builds a small two-register batch: a1 = a0 * c; sync a1.
func fpProg(c Constant) *Program {
	p := NewProgram()
	a0 := p.NewReg(tensor.Float64, 10)
	a1 := p.NewReg(tensor.Float64, 10)
	v := tensor.NewView(tensor.MustShape(10))
	p.MarkInput(a0)
	p.EmitBinary(OpMultiply, Reg(a1, v), Reg(a0, v), Const(c))
	p.EmitSync(Reg(a1, v))
	p.MarkOutput(a1)
	return p
}

func TestFingerprintStable(t *testing.T) {
	a := fpProg(ConstFloat(2.5))
	b := fpProg(ConstFloat(2.5))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical programs fingerprint differently")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint is not deterministic")
	}
}

func TestFingerprintExcludesConstantValues(t *testing.T) {
	a := fpProg(ConstFloat(2.5))
	b := fpProg(ConstFloat(7.25))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("constant value keyed the fingerprint; only structure may")
	}
	// The constant's dtype, however, is structure.
	c := fpProg(ConstInt(2))
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("constant dtype change not reflected in fingerprint")
	}
}

func TestFingerprintExcludesUnusedDeclarations(t *testing.T) {
	a := fpProg(ConstFloat(1.5))
	b := fpProg(ConstFloat(1.5))
	b.NewReg(tensor.Int32, 999) // unrelated array living in the session
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("unreferenced declaration perturbed the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpProg(ConstFloat(2.5))
	mutants := map[string]func(*Program){
		"opcode": func(p *Program) { p.Instrs[0].Op = OpAdd },
		"axis":   func(p *Program) { p.Instrs[0].Axis = 1 },
		"shape": func(p *Program) {
			v := tensor.NewView(tensor.MustShape(2, 5))
			p.Instrs[0].Out.View = v
			p.Instrs[0].In1.View = v
		},
		"stride": func(p *Program) {
			v, err := p.Instrs[0].In1.View.Slice(0, 0, 10, 2)
			if err != nil {
				t.Fatal(err)
			}
			v.Shape[0] = 10 // keep extent, change stride only
			p.Instrs[0].In1.View = v
		},
		"offset": func(p *Program) { p.Instrs[0].In1.View.Offset = 3 },
		"reg-dtype": func(p *Program) {
			p.Regs[0].DType = tensor.Float32
		},
		"reg-len": func(p *Program) {
			p.Regs[0].Len = 20
		},
		"reg-id": func(p *Program) {
			p.NewReg(tensor.Float64, 10)
			p.Instrs[0].Out.Reg = RegID(2)
		},
		"input-role":  func(p *Program) { p.Inputs = nil },
		"output-role": func(p *Program) { p.Outputs = nil },
	}
	for name, mutate := range mutants {
		m := fpProg(ConstFloat(2.5))
		mutate(m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s change not reflected in fingerprint", name)
		}
	}
}

func TestConstantsRoundTrip(t *testing.T) {
	p := fpProg(ConstFloat(2.5))
	got := p.Constants()
	if len(got) != 1 || !got[0].Equal(ConstFloat(2.5)) {
		t.Fatalf("Constants() = %v", got)
	}
	changed, err := p.SetConstants([]Constant{ConstFloat(9)})
	if err != nil || !changed {
		t.Fatalf("SetConstants: changed=%v err=%v", changed, err)
	}
	if !p.Instrs[0].In2.Const.Equal(ConstFloat(9)) {
		t.Errorf("constant not patched: %v", p.Instrs[0].In2.Const)
	}
	changed, err = p.SetConstants([]Constant{ConstFloat(9)})
	if err != nil || changed {
		t.Errorf("same-value patch reported changed=%v err=%v", changed, err)
	}
}

func TestSetConstantsRejectsMismatch(t *testing.T) {
	p := fpProg(ConstFloat(2.5))
	if _, err := p.SetConstants(nil); err == nil {
		t.Error("count mismatch (too few) accepted")
	}
	if _, err := p.SetConstants([]Constant{ConstFloat(1), ConstFloat(2)}); err == nil {
		t.Error("count mismatch (too many) accepted")
	}
	if _, err := p.SetConstants([]Constant{ConstInt(3)}); err == nil {
		t.Error("dtype mismatch accepted")
	}
}

// TestFingerprintGolden pins the digest of every committed listing (and
// of fpProg, whose input/output roles no listing exercises). The plan
// cache keys on these bytes, so any change to the hashed stream — field
// order, width, or which registers count as referenced — must show up
// here rather than as a silent change of cache identity.
func TestFingerprintGolden(t *testing.T) {
	want := map[string]string{
		"blackscholes":  "0c9daee8f94b5f082e4cd23a5c4793045a66d289aa3ccbccc84bd9821c16d399",
		"heatdiffusion": "e103b2508bbec51d211cfcd0567bd07163eba20d1855757e61ec9aab56d3c444",
		"kmeans":        "6b7c2abd6b891e6a327bd0821a443d997548714af3338bda306cf83f86596201",
		"linearsolver":  "b64e2c998adc67fbf53b939ceb14ee0c3b63c1b84cd3926cb088af215753c593",
		"montecarlo":    "1e5e2e10c17eb08a66ff2ced15f4f0d5eafb92c7af6eb323191c7c46709e1f54",
		"powerchains":   "749f4cb2600741eb87c4bef13fff810209c5568809e7b10929c506d22defc8de",
		"quickstart":    "e0cc871c4be9bb13c504d1903b4a70376c82edf76b6408cb5e02235e5c59ff7a",
	}
	got := map[string]*Program{}
	for name, src := range committedListings(t) {
		got[name] = MustParse(src)
	}
	if len(got) != len(want) {
		t.Errorf("%d committed listings, %d pinned digests: pin the new listing's digest", len(got), len(want))
	}
	withUnused := fpProg(ConstInt(2))
	withUnused.NewReg(tensor.Int32, 999)
	got["fpProg"] = fpProg(ConstFloat(2.5))
	want["fpProg"] = "a2c3d4a41f6ebf3056af71b8d76fb17e1a2748caf38e277a815a8f5a09e5dbac"
	got["fpProg-int-unused"] = withUnused
	want["fpProg-int-unused"] = "29e94ebce9859939674d4db93b328867a39b59b218da06e05ff9ffaf6b66438c"
	for name, p := range got {
		fp := p.Fingerprint()
		if hex := fmt.Sprintf("%x", fp[:]); hex != want[name] {
			t.Errorf("%s: fingerprint %s, pinned %s", name, hex, want[name])
		}
	}
}

// BenchmarkFingerprint measures the plan-cache key of each committed
// listing: Fingerprint plus Constants, as every cached flush pays them.
func BenchmarkFingerprint(b *testing.B) {
	listings := committedListings(b)
	for _, name := range sortedKeys(listings) {
		p := MustParse(listings[name])
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.Fingerprint()
				_ = p.Constants()
			}
		})
	}
}
