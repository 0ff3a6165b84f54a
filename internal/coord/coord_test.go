package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/figures"
	"fcpn/internal/journal"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/server"
)

// fastConfig tunes every knob for test speed: tight probes, a
// two-failure breaker, millisecond backoff.
func fastConfig(backends ...string) Config {
	return Config{
		Backends:         backends,
		ProbeInterval:    20 * time.Millisecond,
		BreakerThreshold: 2,
		RetryAttempts:    4,
		RetryBase:        2 * time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		RetryBudget:      10 * time.Second,
		Seed:             1,
	}
}

// bootBackend starts a real analysis service behind httptest.
func bootBackend(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine.Workers == 0 {
		cfg.Engine.Workers = 2
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// bootCoord starts a coordinator behind httptest.
func bootCoord(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

// postCoord submits .pn source through the coordinator.
func postCoord(t *testing.T, base, src string) (int, AnalyzeResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyze", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("bad envelope: %v", err)
	}
	return resp.StatusCode, env
}

// deadURL returns a URL nothing listens on: connections are refused.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := "http://" + ln.Addr().String()
	ln.Close()
	return u
}

// testCorpus returns a handful of distinct nets spanning both hash
// prefixes of a two-backend ring.
func testCorpus(t *testing.T, n int) []string {
	t.Helper()
	srcs := []string{
		petri.Format(figures.Figure2()),
		petri.Format(figures.Figure5()),
		petri.Format(figures.Figure7()),
	}
	for seed := uint64(0); len(srcs) < n; seed++ {
		srcs = append(srcs, petri.Format(netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())))
	}
	return srcs[:n]
}

// waitStats polls the coordinator's stats until pred holds or the
// deadline passes.
func waitStats(t *testing.T, c *Coordinator, what string, pred func(StatsReport) bool) StatsReport {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := c.StatsReport()
		if pred(rep) {
			return rep
		}
		if time.Now().After(deadline) {
			b, _ := json.Marshal(rep)
			t.Fatalf("waiting for %s: %s", what, b)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordRoutesAndMatchesDirect pins the baseline contract: an answer
// through the coordinator is byte-identical to the same net posted
// straight at a backend, and the envelope says which backend produced
// it.
func TestCoordRoutesAndMatchesDirect(t *testing.T) {
	_, b0 := bootBackend(t, server.Config{})
	_, b1 := bootBackend(t, server.Config{})
	_, front := bootCoord(t, fastConfig(b0.URL, b1.URL))

	for _, src := range testCorpus(t, 6) {
		code, env := postCoord(t, front.URL, src)
		if code != http.StatusOK || env.Status != "ok" {
			t.Fatalf("coordinated analyze: code=%d env=%+v", code, env)
		}
		if env.Backend != b0.URL && env.Backend != b1.URL {
			t.Fatalf("envelope names no backend: %+v", env)
		}
		if env.Attempts < 1 {
			t.Fatalf("attempts not counted: %+v", env)
		}

		// The same net straight at the answering backend: same bytes.
		resp, err := http.Post(env.Backend+"/v1/analyze", "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var direct server.AnalyzeResponse
		if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !bytes.Equal(env.Report, direct.Report) {
			t.Fatalf("coordinated report diverged from direct report for %s", env.Hash)
		}
		// Routing is the shared prefix function.
		if want := server.PrefixIndex(env.Hash, 2); !env.Failover {
			backends := []string{b0.URL, b1.URL}
			if env.Backend != backends[want] {
				t.Fatalf("hash %s routed to %s, owner is %s", env.Hash, env.Backend, backends[want])
			}
		}
	}
}

// TestCoordFailoverDeadBackend kills one of two backends and asserts
// every request still answers 200 via the survivor, the dead host's
// breaker opens, and the failover counter moves.
func TestCoordFailoverDeadBackend(t *testing.T) {
	_, b0 := bootBackend(t, server.Config{})
	_, b1 := bootBackend(t, server.Config{})
	c, front := bootCoord(t, fastConfig(b0.URL, b1.URL))

	b1.Close() // SIGKILL-equivalent: connections refused from here on

	for _, src := range testCorpus(t, 8) {
		code, env := postCoord(t, front.URL, src)
		if code != http.StatusOK || env.Status != "ok" {
			t.Fatalf("analyze with a dead backend: code=%d env=%+v", code, env)
		}
		if env.Backend != b0.URL {
			t.Fatalf("answer credited to the dead backend: %+v", env)
		}
	}
	rep := waitStats(t, c, "open breaker + failovers", func(r StatsReport) bool {
		return r.Backends[1].State == "open" && r.Requests.Failovers > 0
	})
	if rep.Requests.Unavailable != 0 {
		t.Fatalf("requests were refused despite a live backend: %+v", rep.Requests)
	}
}

// TestCoordBreakerLifecycle drives one backend through
// closed → open → half-open → closed using a handler that can be
// switched between healthy and failing.
func TestCoordBreakerLifecycle(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"status":"error","error":"draining"}`)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	c, err := New(fastConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitStats(t, c, "initial closed breaker", func(r StatsReport) bool {
		return r.Backends[0].State == "closed"
	})
	healthy.Store(false)
	waitStats(t, c, "breaker to open", func(r StatsReport) bool {
		return r.Backends[0].State == "open" || r.Backends[0].State == "half-open"
	})
	healthy.Store(true)
	waitStats(t, c, "half-open probe to close the breaker", func(r StatsReport) bool {
		return r.Backends[0].State == "closed"
	})
}

// TestCoordDegradedStaleServing: once a report has been answered live,
// losing every backend downgrades the same request to a stale cache
// answer with an explicit degraded marker — and an unknown net to an
// honest 502.
func TestCoordDegradedStaleServing(t *testing.T) {
	_, b0 := bootBackend(t, server.Config{})
	c, front := bootCoord(t, fastConfig(b0.URL))

	src := petri.Format(figures.Figure5())
	code, live := postCoord(t, front.URL, src)
	if code != http.StatusOK || live.Status != "ok" {
		t.Fatalf("live analyze: code=%d env=%+v", code, live)
	}

	b0.Close()
	// The request path itself opens the breaker; no need to wait for
	// probes.
	code, stale := postCoord(t, front.URL, src)
	if code != http.StatusOK {
		t.Fatalf("stale serve refused: code=%d env=%+v", code, stale)
	}
	if !stale.Degraded {
		t.Fatalf("stale answer not marked degraded: %+v", stale)
	}
	if !bytes.Equal(stale.Report, live.Report) {
		t.Fatal("degraded answer diverged from the live answer")
	}

	// A net the journal cache has never seen has no stale answer.
	other := petri.Format(figures.Figure2())
	code, miss := postCoord(t, front.URL, other)
	if code != http.StatusBadGateway {
		t.Fatalf("uncached net with no backend: code=%d env=%+v", code, miss)
	}
	rep := c.StatsReport()
	if rep.Requests.DegradedServes < 1 || rep.Requests.Unavailable < 1 {
		t.Fatalf("degraded/unavailable not counted: %+v", rep.Requests)
	}
}

// TestCoordBootFoldsBackendJournals: a backend's journal is folded into
// the coordinator's own on boot, so a report computed in a previous
// life is servable — explicitly degraded — with zero live backends.
func TestCoordBootFoldsBackendJournals(t *testing.T) {
	dir := t.TempDir()
	bs, b0 := bootBackend(t, server.Config{JournalDir: dir, Engine: engine.Config{Workers: 1}})
	src := petri.Format(figures.Figure5())
	resp, err := http.Post(b0.URL+"/v1/analyze", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var direct server.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	b0.Close()
	bs.Close() // flush the shard journal

	cfg := fastConfig(deadURL(t))
	cfg.Journal = filepath.Join(dir, "coord.jsonl")
	cfg.BackendJournals = []string{filepath.Join(dir, "shard-0.jsonl")}
	c, front := bootCoord(t, cfg)

	if c.StatsReport().CachedReports != 1 {
		t.Fatalf("folded cache: %+v", c.StatsReport())
	}
	code, env := postCoord(t, front.URL, src)
	if code != http.StatusOK || !env.Degraded {
		t.Fatalf("journal-backed degraded serve: code=%d env=%+v", code, env)
	}
	if !bytes.Equal(env.Report, direct.Report) {
		t.Fatal("journal-backed answer diverged from the original report")
	}
	// GET /v1/report falls back to the folded cache too.
	r2, err := http.Get(front.URL + "/v1/report/" + direct.Hash)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("report lookup from folded journal: %d %s", r2.StatusCode, body)
	}
	// The fold is durable: the merged coordinator journal holds the entry.
	ents, err := journal.Read(cfg.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ents[direct.Hash]; !ok {
		t.Fatalf("coordinator journal missing folded hash %s", direct.Hash)
	}
}

// TestCoordBootReissue: a journalled timeout that carries its net
// source is re-submitted to a healthy backend on boot, and the answer
// becomes fetchable.
func TestCoordBootReissue(t *testing.T) {
	src := petri.Format(figures.Figure5())
	n, err := petri.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	hash := n.CanonicalHash()

	dir := t.TempDir()
	bj := filepath.Join(dir, "backend.jsonl")
	line, _ := json.Marshal(journal.Entry{
		Hash: hash, Source: "soak:fig5", Status: string(engine.StatusTimeout),
		Error: "analysis timed out", Net: src,
	})
	if err := os.WriteFile(bj, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	_, b0 := bootBackend(t, server.Config{})
	cfg := fastConfig(b0.URL)
	cfg.Journal = filepath.Join(dir, "coord.jsonl")
	cfg.BackendJournals = []string{bj}
	c, front := bootCoord(t, cfg)

	waitStats(t, c, "boot reissue", func(r StatsReport) bool {
		return r.Requests.Reissues >= 1
	})
	resp, err := http.Get(front.URL + "/v1/report/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reissued report not fetchable: %d %s", resp.StatusCode, body)
	}
	// The reissue overwrote the timeout record later-wins.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := journal.Read(cfg.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := ents[hash].Status; got != string(engine.StatusOK) {
		t.Fatalf("journal after reissue: status %q, want ok", got)
	}
}

// TestCoordHedgedRequest: a slow owner past the hedge threshold loses
// to the hedged copy on the failover host.
func TestCoordHedgedRequest(t *testing.T) {
	envelope := `{"hash":"h","status":"ok","report":{"name":"stub"}}`
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprint(w, `{"status":"ready"}`)
			return
		}
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, envelope)
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, envelope)
	}))
	defer fast.Close()

	// Arrange the ring so the slow host owns the test hash.
	src := petri.Format(figures.Figure5())
	n, _ := petri.ParseString(src)
	owner := server.PrefixIndex(n.CanonicalHash(), 2)
	backends := make([]string, 2)
	backends[owner] = slow.URL
	backends[1-owner] = fast.URL

	cfg := fastConfig(backends...)
	cfg.HedgeAfter = 25 * time.Millisecond
	c, front := bootCoord(t, cfg)

	t0 := time.Now()
	code, env := postCoord(t, front.URL, src)
	if code != http.StatusOK || env.Status != "ok" {
		t.Fatalf("hedged analyze: code=%d env=%+v", code, env)
	}
	if !env.Hedged || env.Backend != fast.URL {
		t.Fatalf("hedge did not win: %+v", env)
	}
	if d := time.Since(t0); d >= 300*time.Millisecond {
		t.Fatalf("hedged request waited out the slow host: %v", d)
	}
	rep := c.StatsReport()
	if rep.Requests.Hedges < 1 || rep.Requests.HedgeWins < 1 {
		t.Fatalf("hedge counters: %+v", rep.Requests)
	}
}

// TestCoordTerminalFaultsLocal: requests no backend could answer
// differently are refused at the coordinator without burning a backend
// exchange.
func TestCoordTerminalFaultsLocal(t *testing.T) {
	_, b0 := bootBackend(t, server.Config{})
	c, front := bootCoord(t, fastConfig(b0.URL))

	code, _ := postCoord(t, front.URL, "this is not a net")
	if code != http.StatusBadRequest {
		t.Fatalf("parse error: code=%d, want 400", code)
	}
	big := Config{Backends: []string{b0.URL}, MaxBodyBytes: 64}
	_, smallFront := bootCoord(t, big)
	code, env := postCoord(t, smallFront.URL, strings.Repeat("x", 1024))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: code=%d env=%+v", code, env)
	}
	if c.StatsReport().Requests.ParseErrors < 1 {
		t.Fatalf("parse errors not counted: %+v", c.StatsReport().Requests)
	}
}

// TestCoordDrainRefuses: a draining coordinator 503s new analyses and
// flips /readyz, like the backends it fronts.
func TestCoordDrainRefuses(t *testing.T) {
	_, b0 := bootBackend(t, server.Config{})
	c, front := bootCoord(t, fastConfig(b0.URL))

	c.Drain()
	code, env := postCoord(t, front.URL, petri.Format(figures.Figure2()))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining analyze: code=%d env=%+v", code, env)
	}
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d", resp.StatusCode)
	}
}

// TestCoordRetryTarget pins where a retry goes: after a transient failure
// the next attempt moves to another live backend, closed before
// half-open, and comes back to the failed one only when no other is live.
// pick's avoid argument is the backend that just failed.
func TestCoordRetryTarget(t *testing.T) {
	c := &Coordinator{backends: []*backend{{url: "b0"}, {url: "b1"}, {url: "b2"}}}
	b0, b1, b2 := c.backends[0], c.backends[1], c.backends[2]
	check := func(what string, failed, want *backend) {
		t.Helper()
		got, _ := c.pick(0, failed)
		if got != want {
			t.Fatalf("%s: retry went to %v, want %v", what, got, want)
		}
	}
	check("first attempt", nil, b0)
	check("owner failed, others closed", b0, b1)
	check("failover failed", b1, b0)
	b1.state.Store(stOpen)
	check("owner failed, next open", b0, b2)
	b2.state.Store(stHalfOpen)
	check("owner failed, only a half-open other", b0, b2)
	b2.state.Store(stOpen)
	check("owner failed, no other live", b0, b0)
	b0.state.Store(stOpen)
	check("nothing live", b0, nil)
}

// TestCoordRetryLeavesFailedBackend: the owner keeps its breaker closed
// (it answers /readyz) but fails every analyze with a transient 503. The
// retry must reach the healthy backend instead of spending every attempt
// on the owner.
func TestCoordRetryLeavesFailedBackend(t *testing.T) {
	src := petri.Format(figures.Figure5())
	n, err := petri.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var ownerAnalyzes atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		ownerAnalyzes.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"status":"error","error":"overloaded"}`)
	}))
	defer failing.Close()
	_, healthy := bootBackend(t, server.Config{})

	backends := []string{healthy.URL, healthy.URL}
	backends[server.PrefixIndex(n.CanonicalHash(), 2)] = failing.URL
	cfg := fastConfig(backends...)
	cfg.BreakerThreshold = 100 // one 503 must not open the owner's breaker
	_, front := bootCoord(t, cfg)

	code, env := postCoord(t, front.URL, src)
	if code != http.StatusOK || env.Status != "ok" || env.Degraded {
		t.Fatalf("analyze: code=%d env=%+v", code, env)
	}
	if env.Backend != healthy.URL || !env.Failover {
		t.Fatalf("answer from %s (failover %v), want the healthy backend by failover", env.Backend, env.Failover)
	}
	if got := ownerAnalyzes.Load(); got != 1 {
		t.Fatalf("owner saw %d analyze attempts, want 1", got)
	}
}
