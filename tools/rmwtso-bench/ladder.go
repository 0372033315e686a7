package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/pkg/rmwtso"
)

// ladderGen sizes the generated programs of the memmodel, core and litmus
// rungs.
var ladderGen = genSpec{n: 20, minCand: 500, maxCand: 50000}

// ladderServeJobs is how many jobs the server rung runs, one at a time.
const ladderServeJobs = 24

// runTraced sets the workload up once, measures it untraced and then
// traced for half of b.seconds each, and runs the per-layer ladder. Its
// result line holds the per-layer metrics only; it prints the self-time
// tables and writes the spans to .bench_build.
func runTraced(b *bench, name string, newWorkload func(*bench) workload) (*result, error) {
	w := newWorkload(b)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	half := time.Duration(b.seconds) * time.Second / 2
	plain, err := w.measure(time.Now().Add(half), nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := w.measure(time.Now().Add(half), tr)
	if err != nil {
		return nil, err
	}
	for _, p := range []*phase{plain, traced} {
		b.attempted += p.attempted
		b.failed += p.failed
	}
	if err := w.verify(); err != nil {
		return nil, err
	}
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return nil, fmt.Errorf("a timed phase completed no job")
	}
	r := &result{Metrics: map[string]metric{}}
	plainP50, tracedP50 := median(plain.lat), median(traced.lat)
	r.set("trace.overhead_pct", (float64(tracedP50)/float64(plainP50)-1)*100, "%")
	fmt.Printf("tracing overhead on %s: median job %.3f ms untraced (%d jobs), %.3f ms traced (%d jobs)\n",
		name, ms(plainP50), len(plain.lat), ms(tracedP50), len(traced.lat))

	l := &ladder{b: b, tr: tr, r: r, rungs: map[string]float64{}}
	if err := l.run(); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	tr.printSelfTimes()
	l.printRungDifferences()
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, b.seed))
	n, err := tr.write(path)
	if err != nil {
		return nil, err
	}
	fmt.Printf("wrote %d spans to %s\n", n, path)
	printResult(r, len(plain.lat)+len(traced.lat))
	return r, nil
}

// ladder times the public entry point of each layer from outside, one
// rung per layer, on inputs made from the seed.
type ladder struct {
	b  *bench
	tr *tracer
	r  *result
	// rungs holds the per-job totals the rung-difference table uses.
	rungs map[string]float64

	opts   rmwtso.Options
	plan   *rmwtso.Plan
	traces map[string]*rmwtso.Trace
	units  []rmwtso.UnitResult
	cache  *rmwtso.Cache
	tests  []genTest
}

// timed runs f under a span of the ladder and returns its duration.
func (l *ladder) timed(name string, parent *span, f func() error) (time.Duration, error) {
	s := l.tr.start(name, parent, "")
	start := time.Now()
	err := f()
	d := time.Since(start)
	s.end()
	return d, err
}

// allocs runs f and returns the heap objects and bytes it allocated.
func allocs(f func() error) (objects, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

func (l *ladder) run() error {
	l.opts = quickOptions(l.b.seed)
	plan, err := rmwtso.DefaultPlan(l.opts)
	if err != nil {
		return err
	}
	l.plan = plan
	dir, err := l.b.tempDir("ladder-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, rung := range []struct {
		name string
		f    func(*span) error
	}{
		{"workload", l.workload},
		{"sim", l.sim},
		{"simcache", func(s *span) error { return l.simcache(s, dir) }},
		{"engine", l.engine},
		{"experiments", l.experiments},
		{"server", l.server},
		{"memmodel", l.memmodel},
		{"litmus", l.litmus},
		{"cpp11", l.cpp11},
	} {
		s := l.tr.start("ladder."+rung.name, nil, "ladder")
		err := rung.f(s)
		s.end()
		if err != nil {
			return fmt.Errorf("%s rung: %w", rung.name, err)
		}
	}
	return nil
}

// workload times generation alone: Generator.Source plus
// MaterializeTrace for every trace of the quick plan.
func (l *ladder) workload(parent *span) error {
	var best time.Duration
	var objs uint64
	var memops int
	for rep := 0; rep < 3; rep++ {
		traces := map[string]*rmwtso.Trace{}
		var total time.Duration
		o, _, err := allocs(func() error {
			for _, u := range l.plan.Units() {
				if _, ok := traces[u.Trace]; ok {
					continue
				}
				d, err := l.timed("workload.generate", parent, func() error {
					tr, err := unitTrace(l.opts, u)
					traces[u.Trace] = tr
					return err
				})
				if err != nil {
					return err
				}
				total += d
			}
			return nil
		})
		if err != nil {
			return err
		}
		if rep == 0 || total < best {
			best, objs = total, o
		}
		l.traces = traces
	}
	for _, t := range l.traces {
		memops += t.MemOps()
	}
	// The engine streams each unit's trace anew, so a cold sweep pays
	// generation once per unit, not once per trace.
	perUnit := 0.0
	for _, u := range l.plan.Units() {
		perUnit += float64(l.traces[u.Trace].MemOps())
	}
	l.r.set("workload.gen_ms", ms(best), "ms")
	l.r.set("workload.ns_per_memop", float64(best)/float64(memops), "ns")
	l.r.set("workload.allocs_per_memop", float64(objs)/float64(memops), "count")
	l.rungs["gen_per_sweep_ms"] = ms(best) * perUnit / float64(memops)
	return nil
}

// sim times Simulate on the pre-built traces, every unit of the plan,
// twice; the exact counts must repeat.
func (l *ladder) sim(parent *span) error {
	base := l.opts.BaseConfig()
	var best time.Duration
	var objs, bytesAlloc uint64
	var memops, cycles, rmws uint64
	for rep := 0; rep < 2; rep++ {
		var total time.Duration
		var m, c, k uint64
		units := make([]rmwtso.UnitResult, 0, l.plan.Len())
		o, by, err := allocs(func() error {
			for _, u := range l.plan.Units() {
				var res *rmwtso.SimResult
				d, err := l.timed("sim.simulate", parent, func() error {
					var err error
					res, err = rmwtso.Simulate(base.WithRMWType(u.Type), l.traces[u.Trace])
					return err
				})
				if err != nil {
					return err
				}
				l.b.check(!res.Deadlocked, "ladder: unit %s deadlocked", u.ID)
				total += d
				m += res.TotalMemOps()
				c += res.Cycles
				k += res.TotalRMWs()
				units = append(units, rmwtso.UnitResult{Unit: u.ID, Trace: u.Trace, Type: u.Type, Seed: u.Seed, Result: res})
			}
			return nil
		})
		if err != nil {
			return err
		}
		if rep == 0 {
			best, objs, bytesAlloc, memops, cycles, rmws = total, o, by, m, c, k
			l.units = units
		} else {
			l.b.check(m == memops && c == cycles && k == rmws, "ladder: simulating the plan twice gave different counts")
			if total < best {
				best = total
			}
		}
	}
	l.r.set("sim.run_ms", ms(best), "ms")
	l.r.set("sim.ns_per_memop", float64(best)/float64(memops), "ns")
	l.r.set("sim.allocs_per_memop", float64(objs)/float64(memops), "count")
	l.r.set("sim.bytes_per_memop", float64(bytesAlloc)/float64(memops), "B")
	l.r.set("sim.memops", float64(memops), "count")
	l.r.set("sim.cycles", float64(cycles), "count")
	l.r.set("sim.rmws", float64(rmws), "count")
	l.rungs["sim_per_sweep_ms"] = ms(best)
	return nil
}

// simcache times Put into an empty on-disk cache and Get from the memory
// tier and, through a second cache on the same directory, from disk.
func (l *ladder) simcache(parent *span, dir string) error {
	c, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
	if err != nil {
		return err
	}
	units := l.plan.Units()
	var puts, memGets, diskGets []time.Duration
	for i, u := range l.units {
		key := units[i].Key
		d, err := l.timed("simcache.put", parent, func() error { return c.PutSim(key, u.Result) })
		if err != nil {
			return err
		}
		puts = append(puts, d)
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	disk, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
	if err != nil {
		return err
	}
	for i, u := range units {
		for _, tier := range []struct {
			c   *rmwtso.Cache
			out *[]time.Duration
		}{{c, &memGets}, {disk, &diskGets}} {
			var got *rmwtso.SimResult
			var ok bool
			d, _ := l.timed("simcache.get", parent, func() error {
				got, ok = tier.c.GetSim(u.Key)
				return nil
			})
			*tier.out = append(*tier.out, d)
			l.b.check(ok && got.Cycles == l.units[i].Result.Cycles, "ladder: cache lookup of unit %s failed", u.ID)
		}
	}
	l.cache = c
	l.r.set("simcache.put_ms", ms(median(puts)), "ms")
	l.r.set("simcache.get_mem_ms", ms(median(memGets)), "ms")
	l.r.set("simcache.get_disk_ms", ms(median(diskGets)), "ms")
	l.r.set("simcache.entry_bytes", float64(size)/float64(len(puts)), "B")
	l.rungs["put_per_sweep_ms"] = ms(median(puts)) * float64(len(puts))
	return nil
}

// warmSplit is one plan's memory-warm job split into its parts.
type warmSplit struct {
	// job and first are the median one-worker job from Submit to Wait
	// and to its first event.
	job, first time.Duration
	// gets is the median sum of the directly timed memory-tier Gets of
	// the plan's units, and dispatch the median difference between a job
	// and the Gets timed right after it.
	gets, dispatch time.Duration
	// metrics are the runner's counters over the timed jobs.
	metrics rmwtso.Metrics
	// units are the warm job's results.
	units []rmwtso.UnitResult
}

// splitWarmJob times a memory-warm one-worker plan job against the
// cache, each time followed by the Gets it makes, timed directly. The plan must fit
// in the cache's memory tier.
func (l *ladder) splitWarmJob(parent *span, c *rmwtso.Cache, plan *rmwtso.Plan) (warmSplit, error) {
	var w warmSplit
	runner := rmwtso.NewRunner(rmwtso.WithParallelism(1), rmwtso.WithCache(c))
	sr, err := runner.RunPlan(context.Background(), plan, rmwtso.FullShard())
	if err != nil {
		return w, err
	}
	w.units = sr.Units
	var jobs, firsts, gets, diffs []time.Duration
	for rep := 0; rep < 9; rep++ {
		var first time.Time
		s := l.tr.start("engine.warm_job", parent, "")
		start := time.Now()
		h, err := runner.Submit(context.Background(), rmwtso.Job{Plan: plan, Observer: func(rmwtso.Event) {
			if first.IsZero() {
				first = time.Now()
			}
		}})
		if err != nil {
			return w, err
		}
		if _, err := h.Wait(); err != nil {
			return w, err
		}
		s.end()
		job := time.Since(start)
		var sum time.Duration
		for _, u := range plan.Units() {
			d, _ := l.timed("simcache.get", parent, func() error {
				_, ok := c.GetSim(u.Key)
				l.b.check(ok, "ladder: unit %s fell out of the cache", u.ID)
				return nil
			})
			sum += d
		}
		jobs, firsts = append(jobs, job), append(firsts, first.Sub(start))
		gets, diffs = append(gets, sum), append(diffs, job-sum)
	}
	w.job, w.first, w.gets, w.dispatch = median(jobs), median(firsts), median(gets), median(diffs)
	w.metrics = runner.Metrics()
	return w, nil
}

// engine times a memory-warm plan job on a one-worker engine against the
// Gets it makes, then a coordinated warm job and a cold one-worker job
// into an empty cache.
func (l *ladder) engine(parent *span) error {
	w, err := l.splitWarmJob(parent, l.cache, l.plan)
	if err != nil {
		return err
	}
	coord := rmwtso.NewRunner(rmwtso.WithParallelism(l.b.workers), rmwtso.WithCache(l.cache))
	var cm rmwtso.Metrics
	_, err = l.timed("engine.coordinated_job", parent, func() error {
		h, err := coord.Submit(context.Background(), rmwtso.Job{Plan: l.plan, Coordination: &rmwtso.CoordinationConfig{Workers: l.b.workers}})
		if err != nil {
			return err
		}
		_, err = h.Wait()
		cm = h.Metrics()
		return err
	})
	if err != nil {
		return err
	}
	m := w.metrics
	l.b.check(m.CacheMisses == 0 && cm.CacheMisses == 0, "ladder: warm engine jobs missed the cache")

	dir, err := l.b.tempDir("ladder-cold-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cold, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
	if err != nil {
		return err
	}
	coldJob, err := l.timed("engine.cold_job", parent, func() error {
		_, err := rmwtso.NewRunner(rmwtso.WithParallelism(1), rmwtso.WithCache(cold)).RunPlan(context.Background(), l.plan, rmwtso.FullShard())
		return err
	})
	if err != nil {
		return err
	}

	l.r.set("engine.job_ms", ms(w.job), "ms")
	l.r.set("engine.first_unit_ms", ms(w.first), "ms")
	l.r.set("engine.dispatch_us_per_unit", float64(w.dispatch)/float64(time.Microsecond)/float64(l.plan.Len()), "us")
	l.r.set("engine.cache_hits", float64(m.CacheHits+cm.CacheHits), "count")
	l.r.set("engine.cache_misses", float64(m.CacheMisses+cm.CacheMisses), "count")
	l.r.set("engine.retries", float64(cm.Retries), "count")
	l.r.set("engine.expired", float64(cm.Expired), "count")
	l.rungs["cold_job_ms"] = ms(coldJob)
	return nil
}

// experiments times Plan.Runs, BuildReport and each report encoder.
func (l *ladder) experiments(parent *span) error {
	var runsT, buildT []time.Duration
	var runs []*rmwtso.BenchmarkRun
	var rep *rmwtso.Report
	for i := 0; i < 5; i++ {
		d, err := l.timed("experiments.runs", parent, func() error {
			var err error
			runs, err = l.plan.Runs(l.units)
			return err
		})
		if err != nil {
			return err
		}
		runsT = append(runsT, d)
	}
	for i := 0; i < 3; i++ {
		d, err := l.timed("experiments.build_report", parent, func() error {
			var err error
			rep, err = rmwtso.BuildReport(l.opts, runs)
			return err
		})
		if err != nil {
			return err
		}
		buildT = append(buildT, d)
	}
	for _, f := range rmwtso.ReportFormats() {
		var ds []time.Duration
		var buf bytes.Buffer
		for i := 0; i < 5; i++ {
			buf.Reset()
			d, err := l.timed("experiments.encode", parent, func() error { return rmwtso.EncodeReport(&buf, rep, f) })
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		l.r.set("experiments.encode_ms."+f, ms(median(ds)), "ms")
		if f == "json" {
			l.r.set("experiments.report_bytes", float64(buf.Len()), "B")
		}
	}
	l.r.set("experiments.runs_ms", ms(median(runsT)), "ms")
	l.r.set("experiments.build_report_ms", ms(median(buildT)), "ms")
	return nil
}

// server runs jobs one at a time against a one-worker server over a
// two-plan pool. Set-up fills the cache with both plans and then the
// litmus verdicts, and the memory tier holds one plan and the verdicts,
// so plan lookups hit both tiers.
func (l *ladder) server(parent *span) error {
	memTier := l.plan.Len() + serveGen.n*len(rmwtso.AllTypes())
	fx, err := newServeFixture(l.b, l.b.seed+1, 2, memTier, 1)
	if fx != nil {
		defer fx.close()
	}
	if err != nil {
		return err
	}
	before := fx.cache.Stats()
	timings, attempted, failed, refused := fx.loop(l.b, l.b.seed, 1, ladderServeJobs, time.Time{}, l.tr)
	st := fx.cache.Stats()
	l.b.attempted += attempted
	l.b.failed += failed
	var submit, events, report, static []time.Duration
	frames := 0
	for _, t := range timings {
		submit = append(submit, t.submit)
		events = append(events, t.events)
		if t.report > 0 {
			report = append(report, t.report)
		}
		if t.static {
			static = append(static, t.total)
		}
		frames += t.frames
	}
	for _, m := range []struct {
		name string
		ds   []time.Duration
	}{{"submit", submit}, {"events", events}, {"report", report}} {
		l.r.set("server."+m.name+"_ms.p50", ms(quantile(m.ds, 0.5)), "ms")
		l.r.set("server."+m.name+"_ms.p90", ms(quantile(m.ds, 0.9)), "ms")
	}
	l.r.set("server.refused", float64(refused), "count")
	l.r.set("server.sse_frames", float64(frames), "count")
	mem, disk := st.MemoryHits-before.MemoryHits, st.DiskHits-before.DiskHits
	l.r.set("simcache.mem_hit_ratio", float64(mem)/float64(mem+disk), "ratio")
	l.r.set("simcache.misses", float64(st.Misses-before.Misses), "count")
	l.r.set("simcache.corrupt", float64(st.Corrupt-before.Corrupt), "count")

	// Split one pool plan's warm job the way the engine rung splits the
	// quick plan's, for the serve-warm rung differences.
	pp := fx.plans[0]
	w, err := l.splitWarmJob(parent, fx.cache, pp.plan)
	if err != nil {
		return err
	}
	var reps []time.Duration
	for i := 0; i < 3; i++ {
		d, err := l.timed("experiments.report", parent, func() error {
			runs, err := pp.plan.Runs(w.units)
			if err != nil {
				return err
			}
			rep, err := rmwtso.BuildReport(quickOptions(pp.spec.Seed), runs)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			return rmwtso.EncodeReport(&buf, rep, "ascii")
		})
		if err != nil {
			return err
		}
		reps = append(reps, d)
	}
	l.rungs["serve_job_ms"] = ms(median(static))
	l.rungs["serve_gets_ms"] = ms(w.gets)
	l.rungs["serve_warm_job_ms"] = ms(w.job)
	l.rungs["serve_report_ms"] = ms(median(reps))
	return nil
}

// memmodel times CountCandidates and enumeration with a counting visitor
// on the generated programs, then enumeration with Model.Valid under
// each type for the core layer.
func (l *ladder) memmodel(parent *span) error {
	tests, err := genTests(l.b.seed+2, ladderGen)
	if err != nil {
		return err
	}
	l.tests = tests
	var countT, enumT, validT time.Duration
	candidates, valid := 0, 0
	types := rmwtso.AllTypes()
	for _, g := range tests {
		p := g.test.Program
		d, err := l.timed("memmodel.count_candidates", parent, func() error {
			for i := 0; i < 10; i++ {
				if _, err := rmwtso.CountCandidates(p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		countT += d / 10
		n := 0
		d, err = l.timed("memmodel.enumerate", parent, func() error {
			return rmwtso.EnumerateExecutionsFunc(p, func(*rmwtso.Execution) bool { n++; return true })
		})
		if err != nil {
			return err
		}
		enumT += d
		l.b.check(n == g.candidates, "ladder: %s enumerated %d candidates, CountCandidates says %d", g.test.Name, n, g.candidates)
		candidates += n
		for _, typ := range types {
			m := rmwtso.NewModel(typ)
			d, err := l.timed("core.enumerate_valid", parent, func() error {
				return rmwtso.EnumerateExecutionsFunc(p, func(x *rmwtso.Execution) bool {
					if m.Valid(x) {
						valid++
					}
					return true
				})
			})
			if err != nil {
				return err
			}
			validT += d
		}
	}
	checked := float64(candidates * len(types))
	l.r.set("memmodel.enumerate_ns_per_candidate", float64(enumT)/float64(candidates), "ns")
	l.r.set("memmodel.count_candidates_us", float64(countT)/float64(time.Microsecond)/float64(len(tests)), "us")
	l.r.set("memmodel.candidates", float64(candidates), "count")
	l.r.set("core.valid_ns_per_candidate", (float64(validT)-float64(len(types))*float64(enumT))/checked, "ns")
	l.r.set("core.valid_ratio", float64(valid)/checked, "ratio")
	l.rungs["enumerate_ms"] = ms(enumT) * float64(len(types))
	l.rungs["valid_ms"] = ms(validT) - ms(enumT)*float64(len(types))
	return nil
}

// litmus times Test.Run per (test, type) over the registry and the
// generated programs, and ParseTest on each rendered test.
func (l *ladder) litmus(parent *span) error {
	registry := rmwtso.Suite().Tests()
	var verdicts []time.Duration
	var genVerdicts, parseT time.Duration
	mismatches := 0
	all := append([]*rmwtso.Test(nil), registry...)
	for _, g := range l.tests {
		all = append(all, g.test)
	}
	for i, t := range all {
		for _, typ := range rmwtso.AllTypes() {
			var res rmwtso.TestResult
			d, err := l.timed("litmus.run", parent, func() error {
				var err error
				res, err = t.Run(typ)
				return err
			})
			if err != nil {
				return err
			}
			verdicts = append(verdicts, d)
			if i < len(registry) && !res.Matches {
				mismatches++
			}
			if i >= len(registry) {
				genVerdicts += d
			}
		}
		src := rmwtso.FormatTest(t)
		d, err := l.timed("litmus.parse", parent, func() error {
			for k := 0; k < 20; k++ {
				if _, err := rmwtso.ParseTest(src); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("parsing the rendered %s: %w", t.Name, err)
		}
		parseT += d / 20
	}
	l.b.check(mismatches == 0, "ladder: %d registry verdicts do not match the paper", mismatches)
	l.r.set("litmus.verdict_ms.p50", ms(quantile(verdicts, 0.5)), "ms")
	l.r.set("litmus.verdict_ms.p90", ms(quantile(verdicts, 0.9)), "ms")
	l.r.set("litmus.parse_us", float64(parseT)/float64(time.Microsecond)/float64(len(all)), "us")
	l.r.set("litmus.mismatches", float64(mismatches), "count")
	l.rungs["verdict_gen_ms"] = ms(genVerdicts)
	return nil
}

// cpp11 times ValidateMapping over the Table 4 grid.
func (l *ladder) cpp11(parent *span) error {
	p := rmwtso.FindCpp11Program("sc-store-buffering")
	if p == nil {
		return fmt.Errorf("the sc-store-buffering program is not registered")
	}
	var reps []time.Duration
	for rep := 0; rep < 3; rep++ {
		d, err := l.timed("cpp11.validate_grid", parent, func() error {
			for _, m := range rmwtso.AllMappings() {
				for _, typ := range rmwtso.AllTypes() {
					if _, err := rmwtso.ValidateMapping(p, m, typ); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		reps = append(reps, d)
	}
	l.r.set("cpp11.validate_ms", ms(median(reps)), "ms")
	return nil
}

// printRungDifferences prints each workload's job split into layer self
// times, each the difference between adjacent rungs of the ladder.
func (l *ladder) printRungDifferences() {
	g := l.rungs
	row := func(layer string, v float64) { fmt.Printf("    %-14s %12.3f ms\n", layer, v) }
	fmt.Println("self time by rung difference (one worker, per job):")
	fmt.Printf("  sweep-cold: cold plan job %.3f ms =\n", g["cold_job_ms"])
	row("workload", g["gen_per_sweep_ms"])
	row("sim", g["sim_per_sweep_ms"])
	row("simcache", g["put_per_sweep_ms"])
	row("engine", g["cold_job_ms"]-g["gen_per_sweep_ms"]-g["sim_per_sweep_ms"]-g["put_per_sweep_ms"])
	fmt.Printf("  serve-warm: static HTTP plan job p50 %.3f ms =\n", g["serve_job_ms"])
	row("simcache", g["serve_gets_ms"])
	row("engine", g["serve_warm_job_ms"]-g["serve_gets_ms"])
	row("experiments", g["serve_report_ms"])
	row("server", g["serve_job_ms"]-g["serve_warm_job_ms"]-g["serve_report_ms"])
	fmt.Printf("  litmus-check: generated verdicts %.3f ms =\n", g["verdict_gen_ms"])
	row("memmodel", g["enumerate_ms"])
	row("core", g["valid_ms"])
	row("litmus", g["verdict_gen_ms"]-g["enumerate_ms"]-g["valid_ms"])
}
