package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload once at tiny scale, untraced and traced,
// and checks that its oracle passed and that it printed exactly the
// metrics BENCHMARK.json names, with their units. It covers the
// workloads BENCHMARK.json leaves out as unsteady too.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	have := map[string]bool{}
	for _, w := range workloads {
		have[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !have[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
	for _, wl := range workloads {
		w := wl.name
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.4", "--trace", trace, "--tiny", "--root", ".."}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if !strings.HasPrefix(lines[0], "# perfbench workload="+w) {
					t.Errorf("output does not start with the header: %q", lines[0])
				}
				var got, exp []string
				for k, m := range res.Metrics {
					got = append(got, k+" "+m.Unit)
				}
				for _, m := range want {
					exp = append(exp, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(exp)
				if strings.Join(got, "\n") != strings.Join(exp, "\n") {
					t.Errorf("metrics differ from BENCHMARK.json\n got: %v\nwant: %v", got, exp)
				}
			})
		}
	}
}

// TestOraclesCatchWrongValues perturbs each workload's oracle input and
// checks that the next op (or the end-of-window check) reports it.
func TestOraclesCatchWrongValues(t *testing.T) {
	o := options{seed: 5, tiny: true, root: ".."}
	cases := []struct {
		name    string
		setup   func(options) (instance, error)
		perturb func(instance)
	}{
		{"stencil-stream", setupStencil, func(i instance) { i.(*stencil).init[2*12+6] += 1e-6 }},
		{"bulk-pricing", setupPricing, func(i instance) { i.(*pricing).want *= 1 + 1e-6 }},
		{"compile-churn", setupChurn, func(i instance) { i.(*churn).xs[0] += 1e-3 }},
		{"bhd-tenants", setupTenants, func(i instance) {
			for j := range i.(*tenants).listings {
				l := &i.(*tenants).listings[j]
				l.synced[0].Text += " "
				l.readText += " "
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := tc.setup(o)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			tc.perturb(inst)
			c := newClient(0, 5)
			for i := 0; i < 8; i++ {
				if err := inst.op(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := inst.verify(c); err != nil {
				t.Fatal(err)
			}
			if c.nWrong == 0 {
				t.Fatal("perturbed oracle went unnoticed")
			}
		})
	}
}

// TestQuietSet pins which slices or set-ups the end-to-end metrics are
// taken over: those within the steal limit, else the least stolen
// minQuiet, else all when the kernel reports no steal.
func TestQuietSet(t *testing.T) {
	secs := []float64{5, 5, 5, 5, 5}
	limit := int64(stealLimit * 5 * clockTicks * float64(runtime.NumCPU()))
	cases := []struct {
		name  string
		steal []int64
		ok    bool
		want  []bool
	}{
		{"quiet host", []int64{0, 1, 0, limit, 0}, true, []bool{true, true, true, true, true}},
		{"short spell", []int64{0, limit + 1, 900, 0, 0}, true, []bool{true, false, false, true, true}},
		{"long spell", []int64{400, limit + 2, 900, limit + 1, limit + 2}, true, []bool{false, true, false, true, true}},
		{"no steal figure", []int64{0, 0, 0, 0, 0}, false, []bool{true, true, true, true, true}},
	}
	for _, tc := range cases {
		got := quietSet(tc.steal, secs, tc.ok)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: quietSet(%v) = %v, want %v", tc.name, tc.steal, got, tc.want)
		}
	}
}
