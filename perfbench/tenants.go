package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bohrium"
	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/server"
	"bohrium/internal/server/api"
	"bohrium/internal/server/middleware"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// bhd-tenants: bhd in process on loopback HTTP, one closed-loop client
// per tenant. Tenant 0's session optimizes, tenant 1's does not.

const (
	maxListingElements = 4096
	readEvery          = 4 // every 4th request of a client is an array read
)

// syncFormat is how bhd and bhrun print registers.
var syncFormat = tensor.FormatOptions{MaxPerDim: 10, Precision: 6}

// listing is one committed example listing with its oracle: the synced
// registers and one register's full contents, from running it in
// process with the optimizer off.
type listing struct {
	name     string
	src      string
	elements int
	synced   []api.SyncedRegister
	readReg  string // "" when no register reads the same with the optimizer on and off
	readText string
}

type tenantClient struct {
	token string
	// sessions holds one session per listing: a session that runs two
	// listings declaring one register with different lengths panics in
	// the VM (see README.md, "Known defects").
	sessions []string
	optimize bool
	zipf     *rand.Zipf
	last     int // listing of the client's latest batch; -1 before the first
	n        int
	handled  int64       // handler time already charged to the client
	rps      []*replayer // traced runs only: one per listing, like sessions
}

type tenants struct {
	rt       *bohrium.Runtime
	srv      *server.Server
	hs       *http.Server
	served   chan error
	tr       *http.Transport
	hc       *http.Client
	base     string
	traced   bool
	listings []listing
	cl       [2]tenantClient
	// handlerNs sums each client's time inside Server.Handler().ServeHTTP,
	// measured by the traced run's wrapper.
	handlerNs [2]atomic.Int64
}

func setupTenants(o options) (instance, error) {
	ls, err := loadListings(o.root)
	if err != nil {
		return nil, err
	}
	t := &tenants{
		rt:       bohrium.NewRuntime(nil),
		traced:   o.trace,
		listings: ls,
		served:   make(chan error, 1),
	}
	tokens := middleware.StaticTokens{"token-0": "tenant-0", "token-1": "tenant-1"}
	t.srv, err = server.New(server.Config{Runtime: t.rt, Auth: tokens})
	if err != nil {
		t.rt.Close()
		return nil, err
	}
	h := t.srv.Handler()
	if o.trace {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			if i, err := strconv.Atoi(r.Header.Get("X-Perfbench-Client")); err == nil && i >= 0 && i < len(t.handlerNs) {
				t.handlerNs[i].Add(int64(time.Since(t0)))
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.srv.Close()
		t.rt.Close()
		return nil, err
	}
	t.base = "http://" + ln.Addr().String()
	t.hs = &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	go func() { t.served <- t.hs.Serve(ln) }()
	t.tr = &http.Transport{MaxIdleConnsPerHost: len(t.cl), DisableCompression: true}
	t.hc = &http.Client{Transport: t.tr, Timeout: 30 * time.Second}

	for i := range t.cl {
		c := &t.cl[i]
		c.token = "token-" + strconv.Itoa(i)
		c.last = -1
		c.optimize = i == 0
		for range t.listings {
			id, err := t.createSession(c)
			if err != nil {
				t.close()
				return nil, err
			}
			c.sessions = append(c.sessions, id)
			if !o.trace {
				continue
			}
			rp, err := newReplayer(t.rt.Engine(), replayer{optimizeFirst: true}, c.optimize)
			if err != nil {
				t.close()
				return nil, err
			}
			c.rps = append(c.rps, rp)
		}
	}
	// Warm-up: every listing once per tenant, then a read of it.
	w := &client{}
	for i := range t.cl {
		w.id = i
		for j := range t.listings {
			l := &t.listings[j]
			if err := t.batch(w, &t.cl[i], j); err != nil {
				t.close()
				return nil, fmt.Errorf("warm-up %s: %w", l.name, err)
			}
			if err := t.read(w, &t.cl[i]); err != nil {
				t.close()
				return nil, fmt.Errorf("warm-up read %s: %w", l.name, err)
			}
		}
	}
	if w.nWrong > 0 {
		t.close()
		return nil, fmt.Errorf("warm-up: %d wrong outputs, first: %s", w.nWrong, w.wrong[0])
	}
	return t, nil
}

// loadListings reads every committed examples/*/listing.bh of at most
// maxListingElements elements, in name order, and computes its oracle.
// The name order is the zipf rank order: the seed draws the sequence of
// requests, not which listing is hot, so every seed runs the same mix.
func loadListings(root string) ([]listing, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "*", "listing.bh"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []listing
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		l := listing{name: filepath.Base(filepath.Dir(p)), src: string(src)}
		if err := l.computeOracle(); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if l.elements <= maxListingElements {
			out = append(out, l)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("found %d usable listings under %s/examples", len(out), root)
	}
	return out, nil
}

// computeOracle runs the listing in process on a private engine with the
// optimizer off (and on, to pick a register both agree on for reads).
func (l *listing) computeOracle() error {
	synced, arrays, elements, err := runListing(l.src, false)
	if err != nil {
		return err
	}
	_, optArrays, _, err := runListing(l.src, true)
	if err != nil {
		return err
	}
	l.synced, l.elements = synced, elements
	for _, s := range synced {
		if text, ok := arrays[s.Reg]; ok && optArrays[s.Reg] == text {
			l.readReg, l.readText = s.Reg, text
			break
		}
	}
	return nil
}

// runListing executes src directly through backend.Open, returning the
// BH_SYNCed registers as a batch response reports them, every named
// register's full-view text as an array read reports it, and the largest
// register's element count.
func runListing(src string, optimize bool) ([]api.SyncedRegister, map[string]string, int, error) {
	eng := vm.NewEngine(vm.EngineConfig{})
	defer eng.Close()
	be, err := backend.Open("", eng, backend.Config{VM: vm.Config{Fusion: true}})
	if err != nil {
		return nil, nil, 0, err
	}
	defer be.Close()
	prog, names, err := bytecode.ParseNames(src)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := prog.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if optimize {
		if prog, _, err = rewrite.Default().Optimize(prog); err != nil {
			return nil, nil, 0, err
		}
	}
	plan, err := be.Compile(prog)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := be.Execute(plan); err != nil {
		return nil, nil, 0, err
	}
	rev := make(map[bytecode.RegID]string, len(names))
	for name, id := range names {
		rev[id] = name
	}
	var synced []api.SyncedRegister
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Op != bytecode.OpSync {
			continue
		}
		name, ok := rev[in.Out.Reg]
		if !ok {
			name = in.Out.Reg.String()
		}
		sr := api.SyncedRegister{Reg: name, Text: "<freed>"}
		if tn, ok := be.Tensor(in.Out.Reg, in.Out.View); ok {
			sr.Text = tn.Format(syncFormat)
		}
		synced = append(synced, sr)
	}
	arrays := map[string]string{}
	elements := 0
	for name, id := range names {
		info, ok := prog.Reg(id)
		if !ok {
			continue
		}
		elements = max(elements, info.Len)
		if tn, ok := be.Tensor(id, tensor.NewView(tensor.MustShape(info.Len))); ok {
			arrays[name] = tn.Format(syncFormat)
		}
	}
	return synced, arrays, elements, nil
}

func (t *tenants) createSession(c *tenantClient) (string, error) {
	body := `{}`
	if c.optimize {
		body = `{"optimize":true}`
	}
	resp, status, err := t.do(-1, c, http.MethodPost, "/v1/sessions", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", status, resp)
	}
	var s api.Session
	if err := json.Unmarshal(resp, &s); err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	return s.ID, nil
}

// do sends one request and reads the whole response. Client index id
// labels the request for the traced run's handler timer (-1: none).
func (t *tenants) do(id int, c *tenantClient, method, path, body string) ([]byte, int, error) {
	req, err := http.NewRequest(method, t.base+path, strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	if t.traced && id >= 0 {
		req.Header.Set("X-Perfbench-Client", strconv.Itoa(id))
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// request sends one op's request, charging its round trip, handler time
// and response size to w, and maps a shed or any other non-want status
// to a failed op.
func (t *tenants) request(w *client, c *tenantClient, method, path, body string, want int) ([]byte, error) {
	t0 := time.Now()
	resp, status, err := t.do(w.id, c, method, path, body)
	w.lay.roundTrip += time.Since(t0)
	w.lay.requests++
	w.lay.responseBytes += int64(len(resp))
	if t.traced {
		h := t.handlerNs[w.id].Load()
		w.lay.handler += time.Duration(h - c.handled)
		c.handled = h
	}
	if err != nil {
		return nil, err
	}
	if status == http.StatusServiceUnavailable {
		w.shed++
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, resp)
	}
	return resp, nil
}

func (t *tenants) clients() int { return len(t.cl) }

func (t *tenants) op(w *client) error {
	c := &t.cl[w.id]
	if c.zipf == nil {
		c.zipf = rand.NewZipf(w.rng, 1.2, 1, uint64(len(t.listings)-1))
	}
	c.n++
	if c.n%readEvery == 0 && c.last >= 0 && t.listings[c.last].readReg != "" {
		return t.read(w, c)
	}
	return t.batch(w, c, int(c.zipf.Uint64()))
}

// batch posts one listing and checks the synced registers against the
// oracle, byte for byte.
func (t *tenants) batch(w *client, c *tenantClient, li int) error {
	l := &t.listings[li]
	resp, err := t.request(w, c, http.MethodPost, "/v1/sessions/"+c.sessions[li]+"/batches", l.src, http.StatusOK)
	if err != nil {
		return err
	}
	var res api.BatchResult
	if err := json.Unmarshal(resp, &res); err != nil {
		return fmt.Errorf("batch %s: %w", l.name, err)
	}
	c.last = li
	if len(res.Synced) != len(l.synced) {
		w.mismatch("bhd-tenants: %s (optimize=%v): %d synced registers, oracle %d", l.name, c.optimize, len(res.Synced), len(l.synced))
	} else {
		for i, sr := range res.Synced {
			if sr != l.synced[i] {
				w.mismatch("bhd-tenants: %s (optimize=%v): synced %s = %q, oracle %s = %q",
					l.name, c.optimize, sr.Reg, sr.Text, l.synced[i].Reg, l.synced[i].Text)
				break
			}
		}
	}
	if c.rps != nil {
		return t.traceBatch(w, c.rps[li], l)
	}
	return nil
}

// traceBatch calls the layers bhd's batch handler calls, on the same
// body: parse, validate, then (optimize,) fingerprint, lookup, compile,
// insert and execute on the client's replay backend.
func (t *tenants) traceBatch(w *client, rp *replayer, l *listing) error {
	t0 := time.Now()
	prog, _, err := bytecode.ParseNames(l.src)
	t1 := time.Now()
	w.lay.parse += t1.Sub(t0)
	if err != nil {
		return err
	}
	err = prog.Validate()
	w.lay.validate += time.Since(t1)
	if err != nil {
		return err
	}
	return rp.run(prog, &w.lay)
}

// read fetches the register the client's last listing is read through
// and checks its text against the oracle.
func (t *tenants) read(w *client, c *tenantClient) error {
	l := &t.listings[c.last]
	if l.readReg == "" {
		return nil
	}
	t0 := time.Now()
	resp, err := t.request(w, c, http.MethodGet, "/v1/sessions/"+c.sessions[c.last]+"/arrays/"+l.readReg, "", http.StatusOK)
	w.read(time.Since(t0))
	if err != nil {
		return err
	}
	var arr api.Array
	if err := json.Unmarshal(resp, &arr); err != nil {
		return fmt.Errorf("read %s/%s: %w", l.name, l.readReg, err)
	}
	if arr.Text != l.readText {
		w.mismatch("bhd-tenants: read %s/%s (optimize=%v) = %q, oracle %q", l.name, l.readReg, c.optimize, arr.Text, l.readText)
	}
	return nil
}

func (t *tenants) counters() counters {
	hits, misses := t.srv.TokenCacheLookups()
	return counters{vm: t.rt.Stats(), tokenHits: hits, tokenMisses: misses}
}

func (t *tenants) verify(*client) error { return nil }

func (t *tenants) sizes() []string {
	var b strings.Builder
	largest := 0
	for i, l := range t.listings {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(%d)", l.name, l.elements)
		largest = max(largest, l.elements)
	}
	return []string{
		fmt.Sprintf("bhd-tenants: %d listings, largest register in elements: %s", len(t.listings), b.String()),
		fmt.Sprintf("bhd-tenants: largest register %s; every %dth request of a client is a read", humanBytes(int64(largest*8)), readEvery),
	}
}

func (t *tenants) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.hs != nil {
		if err := t.hs.Shutdown(ctx); err != nil {
			_ = t.hs.Close() // forced: Serve still returns
		}
		if err := <-t.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: bhd serve: %v\n", err)
		}
		t.tr.CloseIdleConnections()
	}
	for i := range t.cl {
		for _, rp := range t.cl[i].rps {
			rp.close()
		}
	}
	t.srv.Close()
	t.rt.Close()
}
