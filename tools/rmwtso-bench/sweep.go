package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/pkg/rmwtso"
)

// sweepCold runs the paper's quick sweep grid cold: every job simulates
// every unit into an empty on-disk cache.
type sweepCold struct {
	b    *bench
	opts rmwtso.Options
	plan *rmwtso.Plan
	// traceMemops is each unit's memop count, taken from its materialized
	// workload trace; the simulator must report the same count.
	traceMemops map[rmwtso.UnitID]uint64

	// counts of the first job; every later job must repeat them.
	first *sweepCounts
	// firstDir is the first job's cache directory and firstUnits its
	// results, kept for the warm-tier check.
	firstDir   string
	firstUnits []rmwtso.UnitResult
}

// sweepCounts are the exact counts one cold sweep produces.
type sweepCounts struct {
	memops, cycles, rmws uint64
	diskBytes            int64
}

func newSweepCold(b *bench) workload { return &sweepCold{b: b} }

// quickOptions is the quick preset at a plan seed.
func quickOptions(seed int64) rmwtso.Options {
	o := rmwtso.QuickOptions()
	o.Seed = seed
	return o
}

func (w *sweepCold) setup() error {
	w.opts = quickOptions(w.b.seed)
	plan, err := rmwtso.DefaultPlan(w.opts)
	if err != nil {
		return err
	}
	w.plan = plan
	// Materialize each unit's workload trace once, as the reference the
	// simulated memop counts are checked against.
	w.traceMemops = map[rmwtso.UnitID]uint64{}
	traces := map[string]*rmwtso.Trace{}
	for _, u := range plan.Units() {
		tr, ok := traces[u.Trace]
		if !ok {
			if tr, err = unitTrace(w.opts, u); err != nil {
				return err
			}
			traces[u.Trace] = tr
		}
		w.traceMemops[u.ID] = uint64(tr.MemOps())
	}
	return nil
}

// unitTrace generates and materializes the workload trace of one plan
// unit, exactly as the engine's generator stream produces it.
func unitTrace(o rmwtso.Options, u rmwtso.Unit) (*rmwtso.Trace, error) {
	profile, err := rmwtso.FindProfile(u.Benchmark)
	if err != nil {
		return nil, err
	}
	gen := rmwtso.Generator{Cores: o.BaseConfig().Cores, Seed: u.Seed, Replacement: u.Variant}
	src, err := gen.Source(o.ScaledProfile(profile))
	if err != nil {
		return nil, err
	}
	return rmwtso.MaterializeTrace(src), nil
}

func (w *sweepCold) measure(until time.Time, tr *tracer) (*phase, error) {
	p := &phase{}
	for job := 0; time.Now().Before(until) || len(p.lat) == 0; job++ {
		root := tr.start("sweep.job", nil, fmt.Sprintf("sweep-%d", job))
		lat, counts, dir, units, err := w.coldJob(tr, root)
		root.end()
		p.attempted++
		if err != nil {
			p.failed++
			w.b.note("cold sweep job %d: %v", job, err)
			continue
		}
		p.lat = append(p.lat, lat)
		p.work += float64(counts.memops)
		p.busy += lat
		if w.first == nil {
			w.first, w.firstDir, w.firstUnits = counts, dir, units
		} else {
			w.b.check(*counts == *w.first, "cold sweep job %d counts %+v differ from the first job's %+v", job, *counts, *w.first)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// coldJob runs the plan once through Runner.Submit into a fresh, empty
// cache directory and returns the job's latency and exact counts.
func (w *sweepCold) coldJob(tr *tracer, root *span) (time.Duration, *sweepCounts, string, []rmwtso.UnitResult, error) {
	dir, err := w.b.tempDir("sweep-cache-")
	if err != nil {
		return 0, nil, "", nil, err
	}
	cache, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
	if err != nil {
		return 0, nil, dir, nil, err
	}
	runner := rmwtso.NewRunner(rmwtso.WithParallelism(w.b.workers), rmwtso.WithCache(cache))
	start := time.Now()
	s := tr.start("engine.job", root, "")
	h, err := runner.Submit(context.Background(), rmwtso.Job{Plan: w.plan})
	if err != nil {
		return 0, nil, dir, nil, err
	}
	res, err := h.Wait()
	s.end()
	lat := time.Since(start)
	if err != nil {
		return 0, nil, dir, nil, err
	}
	s = tr.start("sweep.check", root, "")
	defer s.end()
	counts := &sweepCounts{}
	units := res.Shard.Units
	if !w.b.check(len(units) == w.plan.Len(), "cold sweep finished %d of %d units", len(units), w.plan.Len()) {
		return lat, counts, dir, units, nil
	}
	for _, u := range units {
		r := u.Result
		w.b.check(!r.Deadlocked, "unit %s (%s, %s) deadlocked", u.Unit, u.Trace, u.Type)
		w.b.check(!u.CacheHit, "unit %s was a cache hit in a cold sweep", u.Unit)
		w.b.check(r.TotalMemOps() == w.traceMemops[u.Unit], "unit %s simulated %d memops, its trace has %d", u.Unit, r.TotalMemOps(), w.traceMemops[u.Unit])
		counts.memops += r.TotalMemOps()
		counts.cycles += r.Cycles
		counts.rmws += r.TotalRMWs()
	}
	m := runner.Metrics()
	w.b.check(m.CacheMisses == w.plan.Len() && m.CacheHits == 0, "cold sweep saw %d hits and %d misses, want 0 and %d", m.CacheHits, m.CacheMisses, w.plan.Len())
	if counts.diskBytes, err = dirBytes(dir); err != nil {
		return lat, counts, dir, units, err
	}
	return lat, counts, dir, units, nil
}

// verify re-runs the plan warm against the first job's cache, once from
// the memory tier and once from the disk tier alone, and checks that the
// warm results equal the cold ones.
func (w *sweepCold) verify() error {
	if w.first == nil {
		return nil
	}
	defer os.RemoveAll(w.firstDir)
	cache, err := rmwtso.OpenCache(rmwtso.CacheDir(w.firstDir))
	if err != nil {
		return err
	}
	for _, tier := range []string{"disk", "memory"} {
		runner := rmwtso.NewRunner(rmwtso.WithParallelism(w.b.workers), rmwtso.WithCache(cache))
		sr, err := runner.RunPlan(context.Background(), w.plan, rmwtso.FullShard())
		if !w.b.checkErr(err, "warm "+tier+" sweep") {
			continue
		}
		m := runner.Metrics()
		w.b.check(m.CacheHits == w.plan.Len() && m.CacheMisses == 0, "warm %s sweep saw %d hits and %d misses", tier, m.CacheHits, m.CacheMisses)
		w.b.check(sameResults(sr.Units, w.firstUnits), "warm %s results differ from the cold results", tier)
	}
	st := cache.Stats()
	w.b.check(st.DiskHits == uint64(w.plan.Len()) && st.MemoryHits == uint64(w.plan.Len()),
		"warm sweeps hit the disk tier %d times and memory %d times, want %d each", st.DiskHits, st.MemoryHits, w.plan.Len())
	return nil
}

// sameResults reports whether two unit lists carry equal simulation
// results unit by unit.
func sameResults(a, b []rmwtso.UnitResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Unit != b[i].Unit || !reflect.DeepEqual(a[i].Result, b[i].Result) {
			return false
		}
	}
	return true
}

func (w *sweepCold) report(p *phase, r *result) {
	p50 := quantile(p.lat, 0.5)
	r.show("wall_s", p50.Seconds(), "s")
	r.show("sim_memops_per_s", p.work/p.busy.Seconds(), "1/s")
	if w.first != nil {
		r.show("cache_disk_mb", float64(w.first.diskBytes)/(1<<20), "MB")
		r.show("sim.memops (per sweep)", float64(w.first.memops), "count")
		r.show("sim.cycles (per sweep)", float64(w.first.cycles), "count")
	}
	r.show("units per sweep", float64(w.plan.Len()), "count")
}

func (w *sweepCold) close() {
	if w.firstDir != "" {
		_ = os.RemoveAll(w.firstDir)
	}
}
