package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/pkg/rmwtso"
)

// No record of how the service is used exists, so the traffic below is
// chosen, not measured: the Zipf skew, the coordinate and source shares,
// and the retention are assumptions of this benchmark.
const (
	// defaultMemTier is the cache's default memory-tier capacity in
	// entries (the facade does not export it). The pool holds one plan more
	// than fit in it, so hits come from both tiers.
	defaultMemTier = 512
	// serveZipfS is the skew of the plan draw over the pool.
	serveZipfS = 1.2
	// serveSourceShare is the share of jobs that submit an inline litmus
	// source instead of a plan; serveCoordShare the share of plan jobs run
	// in coordinate mode.
	serveSourceShare = 0.1
	serveCoordShare  = 0.25
	// serveRetain is how long the server keeps a finished job queryable.
	// Clients fetch the report as soon as the done frame arrives, well
	// under a millisecond later. The finished jobs held (about 1.2 MB
	// each) grow with throughput times retention, so a short retention
	// keeps a faster server from reading as a larger peak_rss_mb.
	serveRetain = 500 * time.Millisecond
)

// serveGen picks the litmus source jobs: the first eight programs the
// litmus-check workload generates from the same seed.
var serveGen = genSpec{n: 8, minCand: litmusGen.minCand, maxCand: litmusGen.maxCand}

// serveWarm drives the HTTP service in-process from a closed loop of
// clients over a pre-filled on-disk cache: every job is served from the
// cache, and every report is checked byte for byte.
type serveWarm struct {
	b  *bench
	fx *serveFixture
	// The timed phases' cache hits by tier and refused submits.
	memHits, diskHits uint64
	refused           int
}

// serveFixture is a running server over a pre-filled cache together with
// the reports and verdicts it must reproduce.
type serveFixture struct {
	cache   *rmwtso.Cache
	srv     *rmwtso.Server
	hs      *httptest.Server
	client  *http.Client
	plans   []poolPlan
	sources []sourceJob
}

// poolPlan is one plan of the pool and its in-process reports.
type poolPlan struct {
	spec rmwtso.ServerPlanSpec
	plan *rmwtso.Plan
	// want maps each report format to the in-process encoding.
	want map[string][]byte
}

// sourceJob is one inline litmus source and its in-process verdicts.
type sourceJob struct {
	src string
	// holds maps each RMW type name to the verdict.
	holds map[string]bool
}

func newServeWarm(b *bench) workload { return &serveWarm{b: b} }

func (w *serveWarm) setup() error {
	plan, err := rmwtso.DefaultPlan(rmwtso.QuickOptions())
	if err != nil {
		return err
	}
	fx, err := newServeFixture(w.b, w.b.seed, defaultMemTier/plan.Len()+1, 0, w.b.workers)
	if err != nil {
		return err
	}
	w.fx = fx
	return nil
}

// newServeFixture starts a server with an engine pool of workers over a
// fresh on-disk cache and fills the cache with every unit of plans
// quick-preset plans, then with the verdicts of the generated litmus
// sources. capacity bounds the memory tier (0 keeps the default).
func newServeFixture(b *bench, seed int64, plans, capacity, workers int) (*serveFixture, error) {
	dir, err := b.tempDir("serve-cache-")
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{}
	opts := []rmwtso.CacheOption{rmwtso.CacheDir(dir)}
	if capacity > 0 {
		opts = append(opts, rmwtso.CacheCapacity(capacity))
	}
	if fx.cache, err = rmwtso.OpenCache(opts...); err != nil {
		return fx, err
	}
	runner := rmwtso.NewRunner(rmwtso.WithParallelism(b.workers), rmwtso.WithCache(fx.cache))
	for i := 0; i < plans; i++ {
		spec := rmwtso.ServerPlanSpec{Preset: "quick", Seed: seed*1000 + int64(i) + 1}
		o := quickOptions(spec.Seed)
		plan, err := rmwtso.DefaultPlan(o)
		if err != nil {
			return fx, err
		}
		sr, err := runner.RunPlan(context.Background(), plan, rmwtso.FullShard())
		if err != nil {
			return fx, err
		}
		runs, err := plan.Runs(sr.Units)
		if err != nil {
			return fx, err
		}
		rep, err := rmwtso.BuildReport(o, runs)
		if err != nil {
			return fx, err
		}
		pp := poolPlan{spec: spec, plan: plan, want: map[string][]byte{}}
		for _, f := range rmwtso.ReportFormats() {
			var buf bytes.Buffer
			if err := rmwtso.EncodeReport(&buf, rep, f); err != nil {
				return fx, err
			}
			pp.want[f] = buf.Bytes()
		}
		fx.plans = append(fx.plans, pp)
	}
	gen, err := genTests(seed, serveGen)
	if err != nil {
		return fx, err
	}
	for _, g := range gen {
		src := rmwtso.FormatTest(g.test)
		t, err := rmwtso.ParseTest(src)
		if err != nil {
			return fx, fmt.Errorf("parsing the rendered %s: %w", g.test.Name, err)
		}
		verdicts, err := runner.CheckTests(t)
		if err != nil {
			return fx, err
		}
		sj := sourceJob{src: src, holds: map[string]bool{}}
		for _, v := range verdicts {
			sj.holds[v.Atomicity.String()] = v.Holds
		}
		fx.sources = append(fx.sources, sj)
	}
	b.check(fx.cache.Stats().Evictions > 0, "set-up filled the cache without evicting from its memory tier, so no hit would come from disk")
	// Each client keeps one job running, but the server frees a job's slot
	// only after it sent the done frame, so a client's next job can start
	// before its last one is counted out. MaxJobs leaves room for that, so
	// no submit is refused.
	if fx.srv, err = rmwtso.NewServer(rmwtso.ServerConfig{
		Parallelism: workers, Cache: fx.cache, RetainFinished: serveRetain, MaxJobs: 4 * workers,
	}); err != nil {
		return fx, err
	}
	fx.hs = httptest.NewServer(fx.srv.Handler())
	fx.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * b.workers}}
	return fx, nil
}

// close stops the HTTP server and its idle connections.
func (fx *serveFixture) close() {
	if fx.client != nil {
		fx.client.CloseIdleConnections()
	}
	if fx.hs != nil {
		fx.hs.Close()
	}
}

// serveJob is one job a client submits.
type serveJob struct {
	plan   int // index into the pool, or -1 for a source job
	source int
	mode   string
	format string
}

// serveTiming is one completed job's client-side timing.
type serveTiming struct {
	total, submit, events, report time.Duration
	frames                        int
	// refused marks a 429; static a static-mode plan job.
	refused, static bool
}

// pick draws the next job of a client.
func (fx *serveFixture) pick(rng *rand.Rand, zipf *rand.Zipf, n int) serveJob {
	if len(fx.sources) > 0 && rng.Float64() < serveSourceShare {
		return serveJob{plan: -1, source: rng.Intn(len(fx.sources))}
	}
	j := serveJob{plan: int(zipf.Uint64()), mode: "static", format: rmwtso.ReportFormats()[n%len(rmwtso.ReportFormats())]}
	if rng.Float64() < serveCoordShare {
		// Coordinated reports carry per-worker counts, which vary from
		// run to run; they are compared in JSON with that section removed.
		j.mode, j.format = "coordinate", "json"
	}
	return j
}

// run executes one job: submit, follow its events to the done frame,
// fetch its report, and check everything it returned.
func (fx *serveFixture) run(b *bench, j serveJob, tr *tracer, root *span) (serveTiming, error) {
	var t serveTiming
	start := time.Now()
	var req rmwtso.ServerSubmitRequest
	if j.plan >= 0 {
		spec := fx.plans[j.plan].spec
		req.Plan, req.Mode = &spec, j.mode
	} else {
		req.Litmus = &rmwtso.ServerLitmusSpec{Source: fx.sources[j.source].src}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return t, err
	}
	s := tr.start("server.submit", root, "")
	resp, err := fx.client.Post(fx.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.end()
		return t, err
	}
	var status struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	s.end()
	t.submit = time.Since(start)
	if resp.StatusCode == http.StatusTooManyRequests {
		t.refused = true
		return t, fmt.Errorf("submit refused with 429")
	}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return t, fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
	}
	if root != nil {
		root.Job = status.ID
	}

	mark := time.Now()
	s = tr.start("server.events", root, "")
	frames, err := fx.follow(status.ID)
	s.end()
	t.events = time.Since(mark)
	t.frames = len(frames)
	if err != nil {
		return t, err
	}
	t.static = j.plan >= 0 && j.mode == "static"
	if j.plan < 0 {
		t.total = time.Since(start)
		fx.checkVerdicts(b, status.ID, frames, fx.sources[j.source])
		return t, nil
	}

	mark = time.Now()
	s = tr.start("server.report", root, "")
	resp, err = fx.client.Get(fx.hs.URL + "/v1/reports/" + status.ID + "?format=" + j.format)
	var report []byte
	if err == nil {
		report, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.end()
	t.report = time.Since(mark)
	t.total = time.Since(start)
	if err != nil {
		return t, err
	}
	if resp.StatusCode != http.StatusOK {
		return t, fmt.Errorf("report of %s: status %d: %s", status.ID, resp.StatusCode, report)
	}
	s = tr.start("bench.verify", root, "")
	fx.checkPlanJob(b, status.ID, j, frames, report)
	s.end()
	return t, nil
}

// frame is one Server-Sent Events frame of a job's event stream.
type frame struct {
	Kind     string `json:"kind"`
	Type     string `json:"type"`
	CacheHit bool   `json:"cache_hit"`
	Holds    *bool  `json:"holds"`
	State    string `json:"state"`
	Error    string `json:"error"`
}

// follow reads the job's event stream up to and including the done frame.
func (fx *serveFixture) follow(id string) ([]frame, error) {
	resp, err := fx.client.Get(fx.hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var f frame
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			return frames, fmt.Errorf("events of %s: %w", id, err)
		}
		frames = append(frames, f)
		if f.Kind == "done" {
			if f.State != "done" {
				return frames, fmt.Errorf("job %s ended %s: %s", id, f.State, f.Error)
			}
			return frames, nil
		}
	}
	if err := sc.Err(); err != nil {
		return frames, err
	}
	return frames, fmt.Errorf("events of %s ended without a done frame", id)
}

// checkPlanJob checks a plan job's frames and report: every unit was a
// cache hit and the report equals the in-process encoding byte for byte
// (for coordinated jobs, after dropping the coordination section).
func (fx *serveFixture) checkPlanJob(b *bench, id string, j serveJob, frames []frame, report []byte) {
	pp := fx.plans[j.plan]
	sims := 0
	for _, f := range frames {
		if f.Kind == "sim" {
			sims++
			b.check(f.CacheHit, "job %s simulated a unit instead of hitting the cache", id)
		}
	}
	b.check(sims == pp.plan.Len(), "job %s streamed %d sim frames for %d units", id, sims, pp.plan.Len())
	if j.mode == "coordinate" {
		rep, err := rmwtso.DecodeReportJSON(report)
		if !b.checkErr(err, "decoding the report of "+id) {
			return
		}
		c := rep.Coordination
		if b.check(c != nil, "coordinated job %s has no coordination section", id) {
			units := 0
			for _, wk := range c.Workers {
				units += wk.Units
			}
			b.check(units == pp.plan.Len() && c.Retries == 0 && c.Expired == 0 && len(c.DeadLetters) == 0,
				"coordinated job %s: %d units, %d retries, %d expired, %d dead", id, units, c.Retries, c.Expired, len(c.DeadLetters))
		}
		rep.Coordination = nil
		var buf bytes.Buffer
		if b.checkErr(rmwtso.EncodeReport(&buf, rep, "json"), "re-encoding the report of "+id) {
			report = buf.Bytes()
		}
	}
	b.check(bytes.Equal(report, pp.want[j.format]), "job %s %s report differs from the in-process encoding", id, j.format)
}

// checkVerdicts checks a litmus source job's verdict frames against the
// in-process verdicts.
func (fx *serveFixture) checkVerdicts(b *bench, id string, frames []frame, sj sourceJob) {
	n := 0
	for _, f := range frames {
		if f.Kind != "litmus" {
			continue
		}
		n++
		b.check(f.CacheHit, "litmus job %s recomputed a verdict", id)
		want, ok := sj.holds[f.Type]
		b.check(ok && f.Holds != nil && *f.Holds == want, "litmus job %s under %s: verdict differs from in-process", id, f.Type)
	}
	b.check(n == len(sj.holds), "litmus job %s streamed %d verdicts, want %d", id, n, len(sj.holds))
}

// loop runs closed-loop clients until the deadline (or, with
// maxJobs > 0, until each client ran maxJobs jobs) and returns every
// completed job's timing with the count of jobs attempted, failed and
// refused (429).
func (fx *serveFixture) loop(b *bench, seed int64, clients, maxJobs int, until time.Time, tr *tracer) (timings []serveTiming, attempted, failed, refused int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(fx.plans)-1))
			for n := 0; (maxJobs == 0 && time.Now().Before(until)) || n < maxJobs; n++ {
				j := fx.pick(rng, zipf, n)
				root := tr.start("server.job", nil, "")
				t, err := fx.run(b, j, tr, root)
				root.end()
				mu.Lock()
				attempted++
				if err != nil {
					failed++
					if t.refused {
						refused++
					}
					b.note("serve job: %v", err)
				} else {
					timings = append(timings, t)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return timings, attempted, failed, refused
}

func (w *serveWarm) measure(until time.Time, tr *tracer) (*phase, error) {
	statsBefore := w.fx.cache.Stats()
	metricsBefore := w.fx.srv.Engine().Metrics()
	start := time.Now()
	timings, attempted, failed, refused := w.fx.loop(w.b, w.b.seed, w.b.workers, 0, until, tr)
	elapsed := time.Since(start)
	stats := w.fx.cache.Stats()
	misses := stats.Misses - statsBefore.Misses
	engMisses := w.fx.srv.Engine().Metrics().CacheMisses - metricsBefore.CacheMisses
	w.b.check(misses == 0 && engMisses == 0, "serve-warm timed phase missed the cache: %d cache misses, %d engine misses", misses, engMisses)
	p := &phase{attempted: attempted, failed: failed, busy: elapsed, work: float64(len(timings))}
	for _, t := range timings {
		p.lat = append(p.lat, t.total)
	}
	w.refused += refused
	w.memHits += stats.MemoryHits - statsBefore.MemoryHits
	w.diskHits += stats.DiskHits - statsBefore.DiskHits
	return p, nil
}

// verify checks that the timed phases, taken together, hit both cache
// tiers. Set-up fills the most popular plan first, so the memory tier
// has evicted it when the first phase starts; a later phase alone may
// find every plan it draws in memory.
func (w *serveWarm) verify() error {
	w.b.check(w.memHits > 0 && w.diskHits > 0, "serve-warm timed phases did not hit both tiers: %d memory hits, %d disk hits", w.memHits, w.diskHits)
	return nil
}

func (w *serveWarm) report(p *phase, r *result) {
	r.show("jobs_per_s", p.work/p.busy.Seconds(), "1/s")
	r.show("jobs timed (latency samples)", float64(len(p.lat)), "count")
	r.show("cache memory-tier hits", float64(w.memHits), "count")
	r.show("cache disk-tier hits", float64(w.diskHits), "count")
	r.show("refused (429)", float64(w.refused), "count")
}

func (w *serveWarm) close() {
	if w.fx != nil {
		w.fx.close()
	}
}
