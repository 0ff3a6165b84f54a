package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fcpn/internal/coord"
	"fcpn/internal/engine"
	"fcpn/internal/petri"
	"fcpn/internal/server"
)

// request is one served operation of the open-loop schedule.
type request struct {
	Kind byte // 'm' first-time net, 'h' permutation of a known net, 'g' report lookup
	Net  int  // index of the net in the served pool
	Body string
	Due  time.Duration // offset from the start of the rung
}

// servePlan draws the served requests from the workload seed: the pool of
// first-time nets in the order they are first sent, and per rung the
// request kinds, targets and permuted texts. A rung's plan depends only on
// the seed, the rung index and the rungs before it.
type servePlan struct {
	seed uint64
	gen  *generator
	pool []item // every net planned as a first-time request so far
}

func newServePlan(seed uint64, gen *generator) *servePlan {
	return &servePlan{seed: seed, gen: gen}
}

func (sp *servePlan) fresh() int {
	sp.pool = append(sp.pool, sp.gen.next())
	return len(sp.pool) - 1
}

// warm plans the set-up requests: the first warmNets pool nets, sent one
// by one.
func (sp *servePlan) warm() []request {
	out := make([]request, warmNets)
	for i := range out {
		k := sp.fresh()
		out[i] = request{Kind: 'm', Net: k, Body: sp.pool[k].Text}
	}
	return out
}

// rung plans rung j: round(rate × seconds) requests due at 1/rate
// intervals. Permutations and lookups target nets whose first request was
// planned in an earlier rung or in set-up, so they have been answered
// before the rung starts.
func (sp *servePlan) rung(j int, seconds float64) []request {
	r := newRng(sp.seed, uint64(1000+j))
	rate := serveLadder[j]
	known := len(sp.pool)
	count := int(rate*seconds + 0.5)
	out := make([]request, count)
	for i := range out {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		roll := r.intn(100)
		switch {
		case roll < missPct:
			k := sp.fresh()
			out[i] = request{Kind: 'm', Net: k, Body: sp.pool[k].Text, Due: due}
		case roll < missPct+hitPct:
			k := r.intn(known)
			out[i] = request{Kind: 'h', Net: k, Body: petri.Format(permute(parseItem(sp.pool[k]), r)), Due: due}
		default:
			out[i] = request{Kind: 'g', Net: r.intn(known), Due: due}
		}
	}
	return out
}

// span is one timed handler invocation, recorded by the traced run's
// handler wrappers.
type span struct {
	who        string // "coord" or "backend"
	start, end time.Time
}

type handlerTimer struct {
	mu    sync.Mutex
	spans []span
}

func (ht *handlerTimer) wrap(who string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		ht.mu.Lock()
		ht.spans = append(ht.spans, span{who, t0, t1})
		ht.mu.Unlock()
	})
}

func (ht *handlerTimer) take() []span {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	s := ht.spans
	ht.spans = nil
	return s
}

// fleet is the served deployment: a coordinator in front of two 1-shard
// backends with journals on, all in this process, on loopback listeners.
type fleet struct {
	dir      string
	backends []*server.Server
	coord    *coord.Coordinator
	https    []*http.Server
	serving  sync.WaitGroup
	url      string
	client   *http.Client
	hashes   map[int]string // pool index -> canonical hash from its first answer
	closed   bool
}

func bootFleet(w workload, dir string, conns int, timer *handlerTimer) (*fleet, error) {
	f := &fleet{dir: dir, hashes: map[int]string{}}
	wrap := func(who string, h http.Handler) http.Handler {
		if timer == nil {
			return h
		}
		return timer.wrap(who, h)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{
			Shards:     1,
			Engine:     w.engineConfig(0),
			JournalDir: filepath.Join(dir, fmt.Sprintf("backend%d", i)),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, srv)
		u, err := f.listen(wrap("backend", srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	c, err := coord.New(coord.Config{
		Backends:      urls,
		ProbeInterval: 250 * time.Millisecond,
		HedgeAfter:    250 * time.Millisecond,
		Journal:       filepath.Join(dir, "coord.jsonl"),
		Seed:          1,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = c
	if f.url, err = f.listen(wrap("coord", c.Handler())); err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, drains the coordinator and the backends
// (flushing their journals) and removes the journal directory. Calls
// after the first return nil.
func (f *fleet) close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- {
		keep(f.https[i].Shutdown(ctx))
	}
	f.serving.Wait()
	if f.coord != nil {
		keep(f.coord.Close())
	}
	for _, b := range f.backends {
		keep(b.Close())
	}
	keep(os.RemoveAll(f.dir))
	return first
}

// reply is the part of a coordinator answer the benchmark checks.
type reply struct {
	Hash     string          `json:"hash"`
	Cache    string          `json:"cache"`
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Degraded bool            `json:"degraded"`
	Report   json.RawMessage `json:"report"`
}

// outcome is what one request saw.
type outcome struct {
	code    int
	reply   reply
	err     error
	latency time.Duration // from due time (open loop) or send time (serial)
	late    time.Duration // generator lateness; < 0 when the request waited for a connection
}

func (f *fleet) send(req request) (int, reply, error) {
	var hreq *http.Request
	var err error
	if req.Kind == 'g' {
		hreq, err = http.NewRequest(http.MethodGet, f.url+"/v1/report/"+f.hashes[req.Net], nil)
	} else {
		hreq, err = http.NewRequest(http.MethodPost, f.url+"/v1/analyze", strings.NewReader(req.Body))
	}
	if err != nil {
		return 0, reply{}, err
	}
	resp, err := f.client.Do(hreq)
	if err != nil {
		return 0, reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, reply{}, err
	}
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return resp.StatusCode, reply{}, fmt.Errorf("undecodable answer: %w", err)
	}
	return resp.StatusCode, rep, nil
}

// serial sends the requests one at a time, timing each from its send.
func (f *fleet) serial(reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	for i, req := range reqs {
		t0 := time.Now()
		code, rep, err := f.send(req)
		out[i] = outcome{code: code, reply: rep, err: err, latency: time.Since(t0), late: -1}
	}
	f.learn(reqs, out)
	return out
}

// openLoop sends the rung's requests at their due times from conns
// goroutines, one connection each. A request is timed from when it was
// due, so a stall also charges the requests queued behind it.
func (f *fleet) openLoop(reqs []request, conns int) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].Due)
				late := time.Duration(-1)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late = time.Since(due)
				}
				code, rep, err := f.send(reqs[i])
				out[i] = outcome{code: code, reply: rep, err: err, latency: time.Since(due), late: late}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	f.learn(reqs, out)
	return out, wall
}

// learn records the canonical hash each first-time net was answered
// under, for later lookups.
func (f *fleet) learn(reqs []request, out []outcome) {
	for i, req := range reqs {
		if req.Kind == 'm' && out[i].reply.Hash != "" {
			f.hashes[req.Net] = out[i].reply.Hash
		}
	}
}

// rungResult is the measured result of one open-loop rate.
type rungResult struct {
	rate      float64
	achieved  float64 // completed requests per second of rung wall time
	p50, p99  float64 // ms from due, median over the rung's windows
	lastLate  float64 // ms the final request completed after its due time
	samples   int
	pass      bool
	genLateMS []float64
	cpuPerReq float64 // ms of process CPU per request: client, coordinator and backends
}

// rungWindows is how many consecutive windows a rung's latencies are cut
// into. Each window yields its own p50 and p99 and the rung reports the
// median over windows, so one stall of the shared host, which delays every
// request in flight at once, moves one window instead of the rung's tail.
const rungWindows = 5

func summarizeRung(rate float64, out []outcome, wall time.Duration, limitMS float64) rungResult {
	lat := make([]float64, len(out))
	var late []float64
	for i, o := range out {
		lat[i] = ms(o.latency)
		if o.late >= 0 {
			late = append(late, ms(o.late))
		}
	}
	var p50s, p99s []float64
	for k := 0; k < rungWindows; k++ {
		if win := lat[k*len(lat)/rungWindows : (k+1)*len(lat)/rungWindows]; len(win) > 0 {
			p50s = append(p50s, quantile(win, 0.5))
			p99s = append(p99s, quantile(win, 0.99))
		}
	}
	r := rungResult{
		rate:      rate,
		achieved:  float64(len(out)) / wall.Seconds(),
		p50:       median(p50s),
		p99:       median(p99s),
		samples:   len(out),
		genLateMS: late,
	}
	if len(out) > 0 {
		r.lastLate = lat[len(lat)-1]
	}
	// No growing backlog: completions kept pace with the offered rate and
	// the last request finished within the limit of its due time.
	r.pass = r.p99 <= limitMS && r.lastLate <= limitMS && r.achieved >= 0.95*rate
	return r
}

// quiesce waits until no backend has an analysis in flight, so work a
// rung left behind (a hedged copy, a backlog) does not run into the next
// rung, then collects the garbage the rung left.
func (f *fleet) quiesce() {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		busy := 0
		for _, b := range f.backends {
			for _, sh := range b.StatsReport().PerShard {
				busy += sh.InFlight + int(sh.Engine.QueueDepth+sh.Engine.BusyWorkers)
			}
		}
		if busy == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	runtime.GC()
}

// verifyServed checks that every served answer is a correct report for
// the text that was sent: the known verdict, one schedule cycle per
// T-reduction, each replaying to the initial marking on that text's net,
// and every field that does not depend on the choice of schedule equal to
// the in-process report of the net's first text, made by an engine with
// the same configuration. drift counts the answers that are not byte for
// byte that in-process report. The program's reports are not a function
// of the labelled net alone: petri.CanonicalForm breaks ties between
// colour-equivalent nodes by declaration order, so isomorphic texts may
// get other hashes and other schedules, and an engine whose cached
// schedule was evicted while its cached reductions were not solves the
// net again by another path.
func verifyServed(w workload, pool []item, reqs []request, outs []outcome, workers int) (errs []error, drift int) {
	firsts := poolRequests(reqs)
	nets := make([]*petri.Net, len(firsts))
	for i, r := range firsts {
		nets[i] = parseItem(pool[r.Net])
	}
	ref := engine.New(w.engineConfig(workers))
	res, err := ref.AnalyzeBatch(nets)
	ref.Close()
	if err != nil {
		return []error{err}, 0
	}
	want := map[int]*engine.NetReport{}
	wantBytes := map[int][]byte{}
	for i, r := range res {
		k := firsts[i].Net
		if err := checkReport(nets[i], pool[k], r.Report, w.Timing); err != nil {
			errs = append(errs, fmt.Errorf("in-process reference: %w", err))
		}
		want[k] = r.Report
		wantBytes[k], _ = json.Marshal(r.Report) // a NetReport always marshals
	}
	for i, o := range outs {
		req := reqs[i]
		name := pool[req.Net].Name
		if o.err != nil {
			errs = append(errs, fmt.Errorf("request %d (%c %s): %v", i, req.Kind, name, o.err))
			continue
		}
		if o.code != http.StatusOK || o.reply.Status != string(engine.StatusOK) || o.reply.Degraded {
			errs = append(errs, fmt.Errorf("request %d (%c %s): HTTP %d status %q degraded=%v %s",
				i, req.Kind, name, o.code, o.reply.Status, o.reply.Degraded, o.reply.Error))
			continue
		}
		if bytes.Equal(o.reply.Report, wantBytes[req.Net]) {
			continue
		}
		drift++
		text := pool[req.Net].Text
		if req.Kind == 'h' {
			text = req.Body
		}
		got := new(engine.NetReport)
		if err := json.Unmarshal(o.reply.Report, got); err != nil {
			errs = append(errs, fmt.Errorf("request %d (%c %s): undecodable report: %v", i, req.Kind, name, err))
			continue
		}
		n, err := petri.ParseString(text)
		if err == nil {
			err = checkReport(n, pool[req.Net], got, w.Timing)
		}
		if err == nil && !sameAnalysis(got, want[req.Net]) {
			err = fmt.Errorf("verdict, reductions, tasks or bounds differ from the in-process report: %s",
				firstDiff(o.reply.Report, wantBytes[req.Net]))
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d (%c %s): %v", i, req.Kind, name, err))
		}
	}
	return errs, drift
}

// poolRequests lists one request per pool net the requests refer to, in
// first-reference order.
func poolRequests(reqs []request) []request {
	seen := map[int]bool{}
	var out []request
	for _, r := range reqs {
		if !seen[r.Net] {
			seen[r.Net] = true
			out = append(out, request{Kind: 'g', Net: r.Net})
		}
	}
	return out
}

// sameAnalysis compares the report fields that do not depend on which
// valid schedule was chosen: everything but the hash, the schedule, the
// buffer bounds measured along it and the timing run driven by it.
func sameAnalysis(a, b *engine.NetReport) bool {
	x, y := *a, *b
	for _, r := range []*engine.NetReport{&x, &y} {
		r.Hash, r.Schedule, r.BufferBounds, r.Timing = "", nil, nil, nil
	}
	return reflect.DeepEqual(x, y)
}

// firstDiff shows where two byte strings first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) string {
		lo, hi := max(i-40, 0), min(i+40, len(b))
		if lo > hi {
			return ""
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("at byte %d got %q want %q", i, clip(got), clip(want))
}
