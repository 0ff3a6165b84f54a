// Package coord is the fault-tolerant multi-host front door of the
// analysis service: an HTTP coordinator that routes POST /v1/analyze
// and GET /v1/report/{hash} to N backend `qssd serve` hosts by the same
// canonical-hash-prefix function the in-process shards use
// (server.PrefixIndex), and absorbs real infrastructure faults without
// ever changing an answer.
//
// The safety argument is content addressing: reports are byte-identical
// across isomorphic requests and across hosts (PR 7/8), so every retry,
// hedge, failover and reissue is idempotent — the coordinator can be as
// aggressive as it likes about *where* and *how often* work runs,
// because *what* comes back is pinned by the canonical hash. The same
// containment discipline compositional synthesis demands: certify the
// pieces, compose without re-proving the whole.
//
// Mechanisms, in request order:
//
//   - per-backend health probing (/readyz) drives a three-state circuit
//     breaker: closed → open after K consecutive failures → half-open
//     probe → closed on success;
//   - routing prefers the hash's owner; an open breaker deterministically
//     reassigns the prefix range to the next healthy host in ring order
//     (a failover, counted);
//   - bounded, seeded-jittered exponential-backoff retries honour
//     Retry-After and retry only transient faults (connection
//     refused/reset, 429, 502, 503-draining, 504) — terminal refusals
//     (400, 413, 422-quarantine) proxy through untouched;
//   - a hedged second request fires to the failover host when the
//     primary exceeds a latency threshold, first-complete-wins;
//   - the coordinator keeps its own journal, folds backend journals with
//     journal.Merge on boot, re-submits journalled timeout/panic records
//     (which carry the net source) to a healthy host, and serves stale
//     journal reports with an explicit degraded marker when every owner
//     of a prefix is down — never a blind 502 while an answer exists.
//
// See docs/SERVICE.md ("The multi-host coordinator") for the topology
// and the failure-mode table.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/journal"
	"fcpn/internal/petri"
	"fcpn/internal/server"
	"fcpn/internal/trace"
)

// Config tunes the coordinator. Only Backends is required.
type Config struct {
	// Backends are the base URLs of the qssd serve hosts work routes
	// across by canonical-hash prefix (index = server.PrefixIndex).
	Backends []string
	// ProbeInterval is the /readyz probe cadence per backend while its
	// breaker is closed (default 250ms). Open breakers probe with
	// exponential backoff from this base.
	ProbeInterval time.Duration
	// BreakerThreshold is K: consecutive failures (requests or probes)
	// before a backend's breaker opens (default 3).
	BreakerThreshold int
	// RetryAttempts bounds how many times one request is tried across
	// hosts before degrading (default 4).
	RetryAttempts int
	// RetryBase/RetryMax bound the seeded-jittered exponential backoff
	// between attempts (defaults 25ms/2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryBudget is the total wall-clock budget of one request's retry
	// loop (default 1 minute).
	RetryBudget time.Duration
	// HedgeAfter fires a second copy of an analyze request at the
	// failover host when the primary has not answered within it;
	// first-complete-wins. 0 disables hedging.
	HedgeAfter time.Duration
	// Journal is the coordinator's own append-only journal path. On
	// boot, BackendJournals (plus any previous coordinator journal) are
	// folded into it with journal.Merge.
	Journal string
	// BackendJournals are backend journal files (e.g. each host's
	// shard-*.jsonl) folded into the coordinator's view on boot: ok
	// records warm the stale-serving cache, timeout/panic records that
	// carry net source are reissued to a healthy host.
	BackendJournals []string
	// Seed drives the retry/hedge jitter stream (0 = fixed default).
	Seed uint64
	// MaxBodyBytes bounds POST /v1/analyze bodies (≤ 0 → 1 MiB).
	MaxBodyBytes int64
	// Client overrides the backend HTTP client (tests); default has a
	// 2-minute timeout.
	Client *http.Client
}

// Breaker states.
const (
	stClosed int32 = iota
	stOpen
	stHalfOpen
)

func stateName(s int32) string {
	switch s {
	case stOpen:
		return "open"
	case stHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// backend is one routed host plus its breaker and counters.
type backend struct {
	url   string
	state atomic.Int32 // stClosed | stOpen | stHalfOpen
	fails atomic.Int32 // consecutive transient failures

	requests   atomic.Int64
	failures   atomic.Int64
	probes     atomic.Int64
	probeFails atomic.Int64
}

func (b *backend) healthy() bool { return b.state.Load() == stClosed }

// recordFailure counts one transient fault against the breaker; at K
// consecutive the breaker opens and the prefix range fails over.
func (b *backend) recordFailure(k int) {
	b.failures.Add(1)
	if int(b.fails.Add(1)) >= k {
		b.state.Store(stOpen)
	}
}

// recordSuccess closes the breaker from any state: a real request is
// at least as good a probe as /readyz.
func (b *backend) recordSuccess() {
	b.fails.Store(0)
	b.state.Store(stClosed)
}

// Coordinator is the multi-host front door. Create with New, mount
// Handler, Close on the way out.
type Coordinator struct {
	cfg      Config
	hc       *http.Client
	backends []*backend
	bo       *Backoff
	tr       *trace.Tracer
	mux      *http.ServeMux
	start    time.Time

	jw *journal.Writer

	mu      sync.RWMutex
	cache   map[string]json.RawMessage // hash → stale-servable report bytes
	entries int                        // journal entries folded at boot

	draining  atomic.Bool
	probeStop context.CancelFunc
	wg        sync.WaitGroup

	// Counters (see CounterStats for meanings).
	cAnalyze, cLookups, cRetries, cHedges, cHedgeWins atomic.Int64
	cFailovers, cReissues, cDegraded, cUnavailable    atomic.Int64
	cParseErrors                                      atomic.Int64
}

// New builds the coordinator: journals folded and reissue queued,
// breakers closed, probe loops running. Returns an error for an empty
// backend list or journal I/O failures.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("coord: at least one backend URL is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 4
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = time.Minute
	}
	c := &Coordinator{
		cfg:   cfg,
		hc:    cfg.Client,
		bo:    NewBackoff(cfg.RetryBase, cfg.RetryMax, cfg.Seed),
		tr:    trace.New(),
		start: time.Now(),
		cache: map[string]json.RawMessage{},
	}
	if c.hc == nil {
		c.hc = &http.Client{Timeout: 2 * time.Minute}
	}
	for _, u := range cfg.Backends {
		c.backends = append(c.backends, &backend{url: strings.TrimRight(u, "/")})
	}

	pending, err := c.foldJournals()
	if err != nil {
		return nil, err
	}
	if cfg.Journal != "" {
		if c.jw, err = journal.Open(cfg.Journal); err != nil {
			return nil, err
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", c.handleAnalyze)
	mux.HandleFunc("GET /v1/report/{hash}", c.handleReport)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux = mux

	ctx, cancel := context.WithCancel(context.Background())
	c.probeStop = cancel
	for _, b := range c.backends {
		c.wg.Add(1)
		go c.probeLoop(ctx, b)
	}
	if len(pending) > 0 {
		c.wg.Add(1)
		go c.reissueLoop(ctx, pending)
	}
	return c, nil
}

// foldJournals merges the backend journals (and any previous
// coordinator journal) into the coordinator's journal file, loads the
// folded entries into the stale-serving cache, and returns the
// reissueable records: journalled timeouts/panics that carry their net
// source.
func (c *Coordinator) foldJournals() ([]journal.Entry, error) {
	var inputs []string
	for _, p := range c.cfg.BackendJournals {
		if _, err := os.Stat(p); err == nil {
			inputs = append(inputs, p)
		}
	}
	var entries map[string]journal.Entry
	switch {
	case c.cfg.Journal != "" && len(inputs) > 0:
		// Own journal folds last so the coordinator's view wins ties.
		if _, err := os.Stat(c.cfg.Journal); err == nil {
			inputs = append(inputs, c.cfg.Journal)
		}
		if _, _, err := journal.Merge(c.cfg.Journal, inputs); err != nil {
			return nil, fmt.Errorf("coord: folding backend journals: %w", err)
		}
		fallthrough
	case c.cfg.Journal != "":
		if _, err := os.Stat(c.cfg.Journal); err != nil {
			entries = map[string]journal.Entry{}
			break
		}
		got, err := journal.Read(c.cfg.Journal)
		if err != nil {
			return nil, fmt.Errorf("coord: reading journal: %w", err)
		}
		entries = got
	default:
		// No coordinator journal: fold the backend journals in memory.
		entries = map[string]journal.Entry{}
		for _, in := range inputs {
			got, err := journal.Read(in)
			if err != nil {
				return nil, fmt.Errorf("coord: reading %s: %w", in, err)
			}
			for h, ent := range got {
				entries[h] = ent
			}
		}
	}

	var pending []journal.Entry
	for hash, ent := range entries {
		switch ent.Status {
		case string(engine.StatusOK):
			if ent.Report == nil {
				continue
			}
			raw, err := json.Marshal(ent.Report)
			if err != nil {
				return nil, err
			}
			c.cache[hash] = raw
		case string(engine.StatusTimeout), string(engine.StatusPanicked):
			if ent.Net != "" {
				pending = append(pending, ent)
			}
		}
	}
	c.entries = len(entries)
	return pending, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Drain flips readiness to 503 and refuses new analyses; in-flight
// proxying finishes.
func (c *Coordinator) Drain() { c.draining.Store(true) }

// Close drains, stops the probe and reissue loops, and flushes the
// coordinator journal.
func (c *Coordinator) Close() error {
	c.Drain()
	c.probeStop()
	c.wg.Wait()
	return c.jw.Close()
}

// ---- routing ---------------------------------------------------------

// owner is the hash's home backend index: the same prefix function the
// in-process shards use, so one partition map covers the whole fleet.
func (c *Coordinator) owner(hash string) int {
	return server.PrefixIndex(hash, len(c.backends))
}

// pick chooses the backend for a hash: the owner if its breaker is
// closed, else — deterministically — the next closed backend in ring
// order (a failover). With no closed backend it settles for a
// half-open one (the probe may have just revived it); with none at all
// it returns nil and the caller degrades. avoid (the backend a retry
// just failed on, or a hedge's primary) is chosen only when no other
// backend is live.
func (c *Coordinator) pick(ownerIdx int, avoid *backend) (*backend, bool) {
	n := len(c.backends)
	for _, wantState := range []int32{stClosed, stHalfOpen} {
		for i := 0; i < n; i++ {
			b := c.backends[(ownerIdx+i)%n]
			if b != avoid && b.state.Load() == wantState {
				return b, b != c.backends[ownerIdx]
			}
		}
	}
	if avoid != nil && avoid.state.Load() != stOpen {
		return avoid, avoid != c.backends[ownerIdx]
	}
	return nil, false
}

// ---- probe loop ------------------------------------------------------

// probeLoop drives one backend's breaker: steady /readyz probes while
// closed; once open, exponential-backoff cooldowns, then a half-open
// probe that either closes the breaker or re-opens it with a longer
// cooldown. The cadence is context-aware backoff all the way down —
// the same primitive the qssd client's WaitReady uses.
func (c *Coordinator) probeLoop(ctx context.Context, b *backend) {
	defer c.wg.Done()
	bo := NewBackoff(c.cfg.ProbeInterval, 16*c.cfg.ProbeInterval, c.cfg.Seed^uint64(len(b.url)))
	openStreak := 0
	for {
		var wait time.Duration
		if b.state.Load() == stOpen {
			wait = bo.Delay(openStreak) // cooldown grows while the host stays down
		} else {
			wait = bo.Delay(0) // steady jittered cadence while closed
		}
		if err := SleepCtx(ctx, wait); err != nil {
			return
		}
		if b.state.Load() == stOpen {
			b.state.Store(stHalfOpen) // announce the trial probe
		}
		b.probes.Add(1)
		ok, _ := ProbeReady(ctx, c.hc, b.url)
		if ok {
			b.recordSuccess()
			openStreak = 0
			continue
		}
		b.probeFails.Add(1)
		if ctx.Err() != nil {
			return
		}
		if b.state.Load() == stHalfOpen {
			b.state.Store(stOpen) // trial failed: back to open, longer cooldown
			openStreak++
		} else {
			b.recordFailure(c.cfg.BreakerThreshold)
		}
	}
}

// ---- request path ----------------------------------------------------

// AnalyzeResponse is the coordinator's envelope: the backend's envelope
// plus where the answer came from and how it got there.
type AnalyzeResponse struct {
	server.AnalyzeResponse
	// Backend is the base URL that produced the answer.
	Backend string `json:"backend,omitempty"`
	// Failover marks an answer produced by a non-owner host.
	Failover bool `json:"failover,omitempty"`
	// Hedged marks an answer won by the hedged second request.
	Hedged bool `json:"hedged,omitempty"`
	// Degraded marks a stale answer served from the merged journal
	// cache because every owner of the prefix is down.
	Degraded bool `json:"degraded,omitempty"`
	// Attempts is how many backend exchanges this request consumed.
	Attempts int `json:"attempts,omitempty"`
}

// exchange is one backend HTTP exchange's outcome.
type exchange struct {
	b          *backend
	code       int
	env        *server.AnalyzeResponse
	retryAfter time.Duration
	err        error // transport or torn-body error
}

// send performs one exchange with a backend and classifies it into the
// breaker. A torn or non-JSON body is a transient fault: the backend
// (or the path to it) is garbling, so the breaker hears about it.
func (c *Coordinator) send(ctx context.Context, b *backend, method, path string, body []byte) exchange {
	b.requests.Add(1)
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return exchange{b: b, err: err}
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.hc.Do(req)
	if err != nil {
		if Transient(err) {
			b.recordFailure(c.cfg.BreakerThreshold)
		}
		return exchange{b: b, err: err}
	}
	defer resp.Body.Close()
	raw, err := readBody(resp)
	if err != nil {
		b.recordFailure(c.cfg.BreakerThreshold)
		return exchange{b: b, err: fmt.Errorf("torn response from %s: %w", b.url, err)}
	}
	env := new(server.AnalyzeResponse)
	if err := json.Unmarshal(raw, env); err != nil {
		// A non-JSON body on a 5xx is an intermediary speaking (e.g. the
		// chaos proxy's 502); classify by status. On a 2xx it is garbling.
		if ClassifyStatus(resp.StatusCode) == ClassTransient {
			b.recordFailure(c.cfg.BreakerThreshold)
			return exchange{b: b, code: resp.StatusCode, retryAfter: RetryAfter(resp),
				err: fmt.Errorf("%s from %s: %s", resp.Status, b.url, firstLine(raw))}
		}
		b.recordFailure(c.cfg.BreakerThreshold)
		return exchange{b: b, err: fmt.Errorf("garbled %s body from %s", resp.Status, b.url)}
	}
	switch ClassifyStatus(resp.StatusCode) {
	case ClassTransient:
		b.recordFailure(c.cfg.BreakerThreshold)
	default:
		b.recordSuccess()
	}
	return exchange{b: b, code: resp.StatusCode, env: env, retryAfter: RetryAfter(resp)}
}

// readBody reads a response body, converting short reads against the
// declared Content-Length (the torn-body fault) into errors.
func readBody(resp *http.Response) ([]byte, error) {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return raw, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// transient reports whether the exchange should be retried.
func (ex exchange) transient() bool {
	if ex.err != nil {
		return Transient(ex.err)
	}
	return ClassifyStatus(ex.code) == ClassTransient
}

// sendHedged races the primary against a hedged copy on the failover
// host once the primary exceeds the latency threshold.
// First-complete-wins among non-transient outcomes; the loser is
// cancelled.
func (c *Coordinator) sendHedged(ctx context.Context, primary *backend, ownerIdx int, method, path string, body []byte) (exchange, bool) {
	if c.cfg.HedgeAfter <= 0 {
		return c.send(ctx, primary, method, path, body), false
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan exchange, 2)
	go func() { results <- c.send(hctx, primary, method, path, body) }()

	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	select {
	case ex := <-results:
		return ex, false
	case <-timer.C:
	}
	alt, _ := c.pick(ownerIdx, primary)
	if alt == nil || alt == primary {
		return <-results, false
	}
	c.cHedges.Add(1)
	sp := c.tr.StartDetail("coord/hedge")
	go func() { results <- c.send(hctx, alt, method, path, body) }()
	first := <-results
	if !first.transient() {
		sp.End()
		// Let the loser's goroutine finish against the cancelled context;
		// the buffered channel keeps it leak-free.
		return first, first.b == alt
	}
	second := <-results
	sp.End()
	if !second.transient() {
		return second, second.b == alt
	}
	return first, false
}

// analyzeUpstream drives one analyze request through routing, hedging,
// bounded retries and failover. It returns the winning exchange plus
// routing metadata; a nil exchange env with err set means the fleet is
// exhausted and the caller should degrade.
func (c *Coordinator) analyzeUpstream(ctx context.Context, hash string, body []byte) (ex exchange, failover, hedged bool, attempts int) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RetryBudget)
	defer cancel()
	ownerIdx := c.owner(hash)
	var last exchange
	for attempt := 0; attempt < c.cfg.RetryAttempts; attempt++ {
		target, fo := c.pick(ownerIdx, last.b)
		if target == nil {
			break // no live backend: degrade now rather than burn the budget
		}
		if fo {
			c.cFailovers.Add(1)
			c.tr.Add("coord/failover", 1)
			failover = true
		}
		ex, hedgeWon := c.sendHedged(ctx, target, ownerIdx, http.MethodPost, "/v1/analyze", body)
		attempts++
		if hedgeWon {
			c.cHedgeWins.Add(1)
			hedged = true
			failover = true
		}
		if !ex.transient() {
			return ex, failover, hedged, attempts
		}
		last = ex
		c.cRetries.Add(1)
		sp := c.tr.StartDetail("coord/retry")
		var sleep time.Duration
		if ex.retryAfter > 0 {
			sleep = c.bo.Honour(ex.retryAfter)
		} else {
			sleep = c.bo.Delay(attempt)
		}
		err := SleepCtx(ctx, sleep)
		sp.End()
		if err != nil {
			break // budget exhausted mid-backoff
		}
	}
	if last.b == nil {
		last.err = errors.New("no live backend")
	}
	return last, failover, hedged, attempts
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// canonicalHash mirrors the server's recover-wrapped hashing.
func canonicalHash(n *petri.Net) (hash string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("canonicalisation panicked: %v", r)
		}
	}()
	return n.CanonicalHash(), nil
}

func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	c.cAnalyze.Add(1)
	if c.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{Status: "error", Error: "coordinator is draining"},
		})
		return
	}
	maxBody := c.cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	if r.ContentLength > maxBody {
		c.cParseErrors.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{Status: "error",
				Error: fmt.Sprintf("body exceeds %d byte limit", maxBody)},
		})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		c.cParseErrors.Add(1)
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{Status: "error", Error: err.Error()},
		})
		return
	}
	// Terminal-by-construction requests are refused here: no backend
	// would answer differently, so none should pay for the parse.
	n, err := petri.Parse(bytes.NewReader(body))
	if err != nil {
		c.cParseErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{Status: "error", Error: "parse: " + err.Error()},
		})
		return
	}
	hash, err := canonicalHash(n)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{Status: string(engine.StatusPanicked), Error: err.Error()},
		})
		return
	}

	sp := c.tr.Start("coord/route")
	ex, failover, hedged, attempts := c.analyzeUpstream(r.Context(), hash, body)
	sp.End()

	if ex.env == nil { // fleet exhausted: degrade or refuse
		c.serveDegraded(w, hash, ex.err)
		return
	}
	resp := AnalyzeResponse{
		AnalyzeResponse: *ex.env,
		Backend:         ex.b.url,
		Failover:        failover,
		Hedged:          hedged,
		Attempts:        attempts,
	}
	c.journalOutcome(hash, n.Name(), ex.env, string(body))
	if ex.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(ex.retryAfter/time.Second)))
	}
	writeJSON(w, ex.code, resp)
}

// journalOutcome records an analyze outcome in the coordinator journal
// and the stale-serving cache. Reissueable outcomes keep the net
// source, exactly like the backends' own journals.
func (c *Coordinator) journalOutcome(hash, name string, env *server.AnalyzeResponse, src string) {
	if env.Status == string(engine.StatusOK) && len(env.Report) > 0 {
		raw := append(json.RawMessage(nil), env.Report...)
		c.mu.Lock()
		c.cache[hash] = raw
		c.mu.Unlock()
	}
	if c.jw == nil {
		return
	}
	ent := journal.Entry{
		Hash:   hash,
		Source: "coord:" + name,
		Status: env.Status,
		Error:  env.Error,
	}
	switch env.Status {
	case string(engine.StatusOK):
		rep := new(engine.NetReport)
		if err := json.Unmarshal(env.Report, rep); err == nil {
			ent.Report = rep
		}
	case string(engine.StatusTimeout), string(engine.StatusPanicked):
		ent.Net = src
	default:
		return // refusals (parse, quarantine, window) are not ours to journal
	}
	c.jw.Record(ent)
}

// serveDegraded answers from the merged journal cache when no backend
// can: a stale, explicitly marked report beats a blind 502. With no
// cached answer the 502 is honest.
func (c *Coordinator) serveDegraded(w http.ResponseWriter, hash string, cause error) {
	c.mu.RLock()
	raw, ok := c.cache[hash]
	c.mu.RUnlock()
	if ok {
		c.cDegraded.Add(1)
		writeJSON(w, http.StatusOK, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{
				Hash: hash, Cache: "hit", Status: string(engine.StatusOK), Report: raw,
			},
			Degraded: true,
		})
		return
	}
	c.cUnavailable.Add(1)
	msg := "no live backend"
	if cause != nil {
		msg = cause.Error()
	}
	writeJSON(w, http.StatusBadGateway, AnalyzeResponse{
		AnalyzeResponse: server.AnalyzeResponse{Hash: hash, Status: "error",
			Error: "all backends failed: " + msg},
	})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	c.cLookups.Add(1)
	hash := r.PathValue("hash")
	ownerIdx := c.owner(hash)
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RetryBudget)
	defer cancel()
	var last exchange
	for attempt := 0; attempt < c.cfg.RetryAttempts; attempt++ {
		target, fo := c.pick(ownerIdx, last.b)
		if target == nil {
			break
		}
		if fo {
			c.cFailovers.Add(1)
			c.tr.Add("coord/failover", 1)
		}
		ex := c.send(ctx, target, http.MethodGet, "/v1/report/"+hash, nil)
		if !ex.transient() {
			if ex.code == http.StatusNotFound {
				// The owner not knowing the hash is authoritative only if
				// the journal cache agrees.
				break
			}
			writeJSON(w, ex.code, AnalyzeResponse{AnalyzeResponse: *ex.env, Backend: ex.b.url, Failover: fo})
			return
		}
		last = ex
		c.cRetries.Add(1)
		if err := SleepCtx(ctx, c.bo.Delay(attempt)); err != nil {
			break
		}
	}
	c.mu.RLock()
	raw, ok := c.cache[hash]
	c.mu.RUnlock()
	if ok {
		c.cDegraded.Add(1)
		writeJSON(w, http.StatusOK, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{
				Hash: hash, Cache: "hit", Status: string(engine.StatusOK), Report: raw,
			},
			Degraded: last.b != nil, // stale only when backends exist but failed
		})
		return
	}
	writeJSON(w, http.StatusNotFound, AnalyzeResponse{
		AnalyzeResponse: server.AnalyzeResponse{Hash: hash, Status: "error", Error: "unknown report hash"},
	})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	for _, b := range c.backends {
		if b.state.Load() != stOpen {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no live backend"})
}

// ---- reissue ---------------------------------------------------------

// reissueLoop re-submits journalled timeout/panic records to a healthy
// host. Each record carries its net source (journal.Entry.Net), so the
// work needs no corpus access; a successful reissue overwrites the
// journal record later-wins. Runs once at boot, retrying each record
// through the same bounded backoff as live traffic.
func (c *Coordinator) reissueLoop(ctx context.Context, pending []journal.Entry) {
	defer c.wg.Done()
	for _, ent := range pending {
		if ctx.Err() != nil {
			return
		}
		sp := c.tr.StartDetail("coord/reissue")
		c.reissueOne(ctx, ent)
		sp.End()
	}
}

func (c *Coordinator) reissueOne(ctx context.Context, ent journal.Entry) {
	n, err := petri.ParseString(ent.Net)
	if err != nil {
		return // a garbled journal line is not worth a request
	}
	ex, _, _, _ := c.analyzeUpstream(ctx, ent.Hash, []byte(ent.Net))
	if ex.env == nil {
		return // fleet still down; the record stays pending in the journal
	}
	if ex.env.Status == string(engine.StatusOK) {
		c.cReissues.Add(1)
		c.journalOutcome(ent.Hash, n.Name(), ex.env, ent.Net)
	}
}

// ---- stats -----------------------------------------------------------

// BackendStats is one backend's slice of GET /v1/stats.
type BackendStats struct {
	URL string `json:"url"`
	// State is the breaker state: "closed" (routable), "open" (failed
	// over) or "half-open" (probe in flight).
	State            string `json:"state"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	Requests         int64  `json:"requests"`
	Failures         int64  `json:"failures"`
	Probes           int64  `json:"probes"`
	ProbeFailures    int64  `json:"probe_failures"`
}

// CounterStats are the coordinator's request-path tallies.
type CounterStats struct {
	Analyze       int64 `json:"analyze"`
	ReportLookups int64 `json:"report_lookups"`
	ParseErrors   int64 `json:"parse_errors"`
	// Retries counts backoff-and-go-again decisions; Failovers counts
	// requests routed off their owner; Hedges counts second requests
	// fired, HedgeWins how many answered first.
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Reissues counts journalled timeout/panic records successfully
	// re-analysed on boot.
	Reissues int64 `json:"reissues"`
	// DegradedServes counts stale journal-cache answers; Unavailable
	// counts honest 502s (no backend, no cached answer).
	DegradedServes int64 `json:"degraded_serves"`
	Unavailable    int64 `json:"unavailable"`
}

// StatsReport is the GET /v1/stats document.
type StatsReport struct {
	Backends       []BackendStats `json:"backends"`
	UptimeMS       float64        `json:"uptime_ms"`
	Requests       CounterStats   `json:"requests"`
	JournalEntries int            `json:"journal_entries"`
	CachedReports  int            `json:"cached_reports"`
	Trace          *trace.Report  `json:"trace,omitempty"`
}

// StatsReport assembles the stats document (also GET /v1/stats).
func (c *Coordinator) StatsReport() StatsReport {
	rep := StatsReport{
		UptimeMS: float64(time.Since(c.start).Nanoseconds()) / 1e6,
		Requests: CounterStats{
			Analyze:        c.cAnalyze.Load(),
			ReportLookups:  c.cLookups.Load(),
			ParseErrors:    c.cParseErrors.Load(),
			Retries:        c.cRetries.Load(),
			Failovers:      c.cFailovers.Load(),
			Hedges:         c.cHedges.Load(),
			HedgeWins:      c.cHedgeWins.Load(),
			Reissues:       c.cReissues.Load(),
			DegradedServes: c.cDegraded.Load(),
			Unavailable:    c.cUnavailable.Load(),
		},
		JournalEntries: c.entries,
		Trace:          c.tr.Report(),
	}
	c.mu.RLock()
	rep.CachedReports = len(c.cache)
	c.mu.RUnlock()
	for _, b := range c.backends {
		rep.Backends = append(rep.Backends, BackendStats{
			URL:              b.url,
			State:            stateName(b.state.Load()),
			ConsecutiveFails: int(b.fails.Load()),
			Requests:         b.requests.Load(),
			Failures:         b.failures.Load(),
			Probes:           b.probes.Load(),
			ProbeFailures:    b.probeFails.Load(),
		})
	}
	return rep
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.StatsReport())
}
