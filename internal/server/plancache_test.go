package server_test

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/server/api"
)

// stats reads the shared engine's counters.
func (c *client) stats() api.ServerStats {
	c.t.Helper()
	var st api.ServerStats
	c.expect("GET", "/v1/stats", nil, http.StatusOK, &st)
	return st
}

// replies submits src to session id and then reads every named array,
// returning each response as "status body" with the session id masked,
// so two sessions' replies compare byte for byte.
func (c *client) replies(id, src string, names []string) []string {
	c.t.Helper()
	mask := func(status int, body []byte) string {
		return fmt.Sprintf("%d %s", status, strings.ReplaceAll(string(body), id, "<session>"))
	}
	out := []string{mask(c.do("POST", "/v1/sessions/"+id+"/batches", []byte(src)))}
	for _, name := range names {
		out = append(out, mask(c.do("GET", "/v1/sessions/"+id+"/arrays/"+name, nil)))
	}
	return out
}

// listingNames returns the register names a listing declares or uses,
// sorted.
func listingNames(t *testing.T, src string) []string {
	t.Helper()
	_, ids, err := bytecode.ParseNames(src)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ids))
	for name := range ids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// countRule is a rewrite rule that changes nothing and counts the
// optimizer runs it takes part in.
type countRule struct{ runs *atomic.Int64 }

func (countRule) Name() string { return "count" }

func (r countRule) Apply(*bytecode.Program) (int, error) {
	r.runs.Add(1)
	return 0, nil
}

// TestPlanHitRepliesMatchMiss pins the lookup order of a batch: parse,
// validate, then the plan cache by the parsed listing, with Optimize and
// Compile only on a miss. Every committed listing is submitted by one
// tenant (a miss) and then by another (a hit) on a fresh daemon, with the
// optimizer off and on, sync and async. The hit's batch response and
// every array read must be byte-identical to the miss's, the engine must
// count exactly one more plan hit and no further miss, and the optimizer
// (the default rules plus a counting rule) must not run for the hit.
func TestPlanHitRepliesMatchMiss(t *testing.T) {
	for name, src := range listings(t) {
		names := listingNames(t, src)
		for _, optimize := range []bool{false, true} {
			for _, async := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/optimize=%v/async=%v", name, optimize, async), func(t *testing.T) {
					hs, srv := newTestServer(t, nil)
					a := &client{t: t, base: hs.URL, token: "secret-a"}
					b := &client{t: t, base: hs.URL, token: "secret-b"}
					req := api.CreateSession{Optimize: optimize, Async: async}
					var runs atomic.Int64
					session := func(c *client) string {
						id := c.createSession(req).ID
						if optimize {
							rules := append([]rewrite.Rule{countRule{&runs}}, rewrite.Default().Rules()...)
							srv.SetSessionPipeline(id, rewrite.NewPipeline(rules...))
						}
						return id
					}

					miss := a.replies(session(a), src, names)
					optimized := runs.Load()
					if optimize && optimized == 0 {
						t.Fatal("the miss never ran the optimizer")
					}
					before := a.stats()
					if before.VM.PlanHits != 0 || before.VM.PlanMisses != 1 {
						t.Fatalf("first submission: %d plan hits, %d misses; want 0 and 1",
							before.VM.PlanHits, before.VM.PlanMisses)
					}
					hit := b.replies(session(b), src, names)
					after := a.stats()
					if runs.Load() != optimized {
						t.Errorf("the plan hit ran the optimizer %d more time(s)", runs.Load()-optimized)
					}
					if after.VM.PlanHits != before.VM.PlanHits+1 || after.VM.PlanMisses != before.VM.PlanMisses {
						t.Fatalf("repeat submission: plan hits %d -> %d, misses %d -> %d; want +1 hit, no miss",
							before.VM.PlanHits, after.VM.PlanHits, before.VM.PlanMisses, after.VM.PlanMisses)
					}
					for i := range miss {
						if hit[i] != miss[i] {
							t.Errorf("reply %d diverged on the plan hit:\n--- miss\n%s\n--- hit\n%s", i, miss[i], hit[i])
						}
					}
				})
			}
		}
	}
}

// TestPlanBaseKeepsScratchApart: power expansion with scratch registers
// numbers them from the listing's register count, and the fingerprint
// ignores unreferenced declarations. Two listings that differ only in an
// unreferenced .reg line therefore share a fingerprint but not their
// scratch ids, so they must not share a plan. Replaying the first
// listing's plan for the second would put a scratch register on a1,
// which the second tenant holds live as float64[3].
func TestPlanBaseKeepsScratchApart(t *testing.T) {
	const body = "BH_IDENTITY a0 [0:8:1] 1.5\n" +
		"BH_POWER a0 [0:8:1] a0 [0:8:1] 7\n" +
		"BH_SYNC a0 [0:8:1]\n"
	const power = ".reg a0 float64 8\n" + body
	const withUnused = ".reg a0 float64 8\n.reg a1 float64 3\n" + body
	const holdA1 = ".reg a0 float64 8\n.reg a1 float64 3\nBH_IDENTITY a1 [0:3:1] 4\nBH_SYNC a1 [0:3:1]\n"
	if bytecode.MustParse(power).Fingerprint() != bytecode.MustParse(withUnused).Fingerprint() {
		t.Fatal("the two listings must share a fingerprint for this test to mean anything")
	}
	opts := rewrite.DefaultOptions()
	opts.PowerAllowTemporaries = true
	scratchPipeline := func() *rewrite.Pipeline { return rewrite.Build(opts) }
	if p, _, err := scratchPipeline().Optimize(bytecode.MustParse(power)); err != nil || len(p.Regs) == 1 {
		t.Fatalf("power expansion added no scratch register (err %v): the test needs one", err)
	}

	// fresh runs src alone on a new daemon: the reference values.
	fresh := func(src string) []api.SyncedRegister {
		hs, srv := newTestServer(t, nil)
		c := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := c.createSession(api.CreateSession{Optimize: true})
		srv.SetSessionPipeline(sess.ID, scratchPipeline())
		return c.submit(sess.ID, src, http.StatusOK).Synced
	}

	hs, srv := newTestServer(t, nil)
	a := &client{t: t, base: hs.URL, token: "secret-a"}
	b := &client{t: t, base: hs.URL, token: "secret-b"}
	sa := a.createSession(api.CreateSession{Optimize: true})
	sb := b.createSession(api.CreateSession{Optimize: true})
	srv.SetSessionPipeline(sa.ID, scratchPipeline())
	srv.SetSessionPipeline(sb.ID, scratchPipeline())

	resA := a.submit(sa.ID, power, http.StatusOK)
	b.submit(sb.ID, holdA1, http.StatusOK)
	before := a.stats()
	resB := b.submit(sb.ID, withUnused, http.StatusOK)
	after := a.stats()
	if after.VM.PlanHits != before.VM.PlanHits {
		t.Fatalf("listing with one more declaration hit the other's plan (plan hits %d -> %d)",
			before.VM.PlanHits, after.VM.PlanHits)
	}
	for _, run := range []struct {
		src string
		got []api.SyncedRegister
	}{{power, resA.Synced}, {withUnused, resB.Synced}} {
		want := fresh(run.src)
		if fmt.Sprint(run.got) != fmt.Sprint(want) {
			t.Errorf("synced %v, a fresh engine gives %v", run.got, want)
		}
	}
	if arr := b.array(sb.ID, "a1"); arr.Text != "[4 4 4]" {
		t.Errorf("a1 = %s after the power batch, want [4 4 4] untouched", arr.Text)
	}
}

// TestPlanHitReadsOwnDeclarations: a plan hit executes the cached
// program, whose unreferenced declarations belong to whichever listing
// compiled it. Reads must still address a name through the requesting
// listing's own declaration.
func TestPlanHitReadsOwnDeclarations(t *testing.T) {
	const first = ".reg a0 float64 4\n.reg a1 float64 4\nBH_IDENTITY a0 [0:4:1] 2\nBH_SYNC a0 [0:4:1]\n"
	const second = ".reg a0 float64 4\n.reg a1 int32 6\nBH_IDENTITY a0 [0:4:1] 2\nBH_SYNC a0 [0:4:1]\n"
	const holdA1 = ".reg a0 float64 4\n.reg a1 int32 6\nBH_IDENTITY a1 [0:6:1] 7\nBH_SYNC a1 [0:6:1]\n"
	for _, optimize := range []bool{false, true} {
		t.Run(fmt.Sprintf("optimize=%v", optimize), func(t *testing.T) {
			hs, _ := newTestServer(t, nil)
			a := &client{t: t, base: hs.URL, token: "secret-a"}
			b := &client{t: t, base: hs.URL, token: "secret-b"}
			sa := a.createSession(api.CreateSession{Optimize: optimize})
			sb := b.createSession(api.CreateSession{Optimize: optimize})

			a.submit(sa.ID, first, http.StatusOK)
			b.submit(sb.ID, holdA1, http.StatusOK)
			before := a.stats()
			b.submit(sb.ID, second, http.StatusOK)
			if after := a.stats(); after.VM.PlanHits != before.VM.PlanHits+1 {
				t.Fatalf("second listing missed the first's plan (plan hits %d -> %d)",
					before.VM.PlanHits, after.VM.PlanHits)
			}
			arr := b.array(sb.ID, "a1")
			if arr.DType != "int32" || arr.Len != 6 || arr.Text != "[7 7 7 7 7 7]" {
				t.Errorf("a1 read as %s[%d] %s, want the requester's int32[6] [7 7 7 7 7 7]",
					arr.DType, arr.Len, arr.Text)
			}
		})
	}
}
