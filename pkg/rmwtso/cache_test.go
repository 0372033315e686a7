package rmwtso_test

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pkg/rmwtso"
)

// tinyOptions keep the cached sweeps fast (4 cores, 10% scale).
func tinyOptions(cache *rmwtso.Cache) rmwtso.Options {
	return rmwtso.Options{Cores: 4, Scale: 0.1, Seed: 20130601, Cache: cache}
}

// runSpecs runs the plan of specs unsharded on r and reassembles its
// benchmark runs.
func runSpecs(r *rmwtso.Runner, o rmwtso.Options, specs []rmwtso.BenchmarkSpec) ([]*rmwtso.BenchmarkRun, error) {
	plan, err := rmwtso.BuildPlan(o, specs)
	if err != nil {
		return nil, err
	}
	res, err := r.RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		return nil, err
	}
	return plan.Runs(res.Units)
}

// runTypes runs src under each RMW type through SimulateSourceCached, in
// type order, as rmwsim -sweep does.
func runTypes(c *rmwtso.Cache, cfg rmwtso.SimConfig, src rmwtso.TraceSource, seed int64, types ...rmwtso.AtomicityType) ([]*rmwtso.SimResult, []bool, error) {
	var results []*rmwtso.SimResult
	var hits []bool
	for _, typ := range types {
		res, hit, err := rmwtso.SimulateSourceCached(c, cfg.WithRMWType(typ), src, seed, 1)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
		hits = append(hits, hit)
	}
	return results, hits, nil
}

// TestRunnerBenchmarkCacheObserver is the acceptance check of the cache:
// a second run of the same plan over the same cache serves every unit as a
// CacheHit event — zero simulator runs — and returns deeply equal runs.
func TestRunnerBenchmarkCacheObserver(t *testing.T) {
	cache, err := rmwtso.OpenCache(rmwtso.CacheDir(t.TempDir()))
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	specs := rmwtso.Table3Specs()[:2]
	units := 0
	for _, s := range specs {
		units += len(s.Types)
	}

	var events, hits atomic.Int64
	observer := func(e rmwtso.Event) {
		if e.Sim == nil {
			return
		}
		events.Add(1)
		if e.Sim.CacheHit {
			hits.Add(1)
		}
	}
	runner := rmwtso.NewRunner(rmwtso.WithObserver(observer), rmwtso.WithCache(cache))

	cold, err := runSpecs(runner, tinyOptions(nil), specs)
	if err != nil {
		t.Fatalf("cold plan: %v", err)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("cold run streamed %d cache hits, want 0", got)
	}
	if got := events.Load(); got != int64(units) {
		t.Fatalf("cold run streamed %d sim events, want %d", got, units)
	}

	events.Store(0)
	hits.Store(0)
	warm, err := runSpecs(runner, tinyOptions(nil), specs)
	if err != nil {
		t.Fatalf("warm plan: %v", err)
	}
	if got := hits.Load(); got != int64(units) {
		t.Fatalf("warm run streamed %d cache hits, want %d (zero simulator runs)", got, units)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm runs differ from cold runs")
	}
	if st := cache.Stats(); st.Hits() != uint64(units) || st.Misses != uint64(units) {
		t.Fatalf("cache stats = %+v, want %d hits and %d misses", st, units, units)
	}
}

// TestOptionsCachePlumbing checks the Options.Cache route (no Runner
// option): the second sweep must hit.
func TestOptionsCachePlumbing(t *testing.T) {
	cache, err := rmwtso.OpenCache() // memory-only
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	runner := rmwtso.NewRunner()
	specs := rmwtso.Table3Specs()[:1]
	if _, err := runSpecs(runner, tinyOptions(cache), specs); err != nil {
		t.Fatalf("cold: %v", err)
	}
	if _, err := runSpecs(runner, tinyOptions(cache), specs); err != nil {
		t.Fatalf("warm: %v", err)
	}
	st := cache.Stats()
	if st.MemoryHits != uint64(len(specs[0].Types)) {
		t.Fatalf("stats = %+v, want %d memory hits via Options.Cache", st, len(specs[0].Types))
	}
}

// TestSimulateSourceCachedTypeSweep covers the rmwsim -sweep pattern:
// the second pass over the same source replays all three per-type runs
// from the cache, and a different seed misses.
func TestSimulateSourceCachedTypeSweep(t *testing.T) {
	cache, err := rmwtso.OpenCache()
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	profile, err := rmwtso.FindProfile("raytrace")
	if err != nil {
		t.Fatalf("FindProfile: %v", err)
	}
	profile.Iterations = 16
	gen := rmwtso.Generator{Cores: 4, Seed: 7}
	src, err := gen.Source(profile)
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	cfg := rmwtso.DefaultSimConfig().WithCores(4)
	types := rmwtso.AllTypes()

	cold, _, err := runTypes(cache, cfg, src, 7, types...)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	warm, warmHits, err := runTypes(cache, cfg, src, 7, types...)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("sweep sizes differ")
	}
	for i := range warm {
		if !warmHits[i] {
			t.Errorf("warm run %s not served from cache", types[i])
		}
		if !reflect.DeepEqual(warm[i], cold[i]) {
			t.Errorf("warm result for %s differs", types[i])
		}
	}
	// A different seed must miss: the key includes the workload identity.
	_, reseedHits, err := runTypes(cache, cfg, src, 8, types...)
	if err != nil {
		t.Fatalf("reseeded sweep: %v", err)
	}
	for i, hit := range reseedHits {
		if hit {
			t.Errorf("different seed hit the cache for %s", types[i])
		}
	}
}

// TestLitmusVerdictCache runs a slice of the registered suite twice
// through a caching Runner and asserts the second pass replays identical
// verdicts flagged CacheHit.
func TestLitmusVerdictCache(t *testing.T) {
	cache, err := rmwtso.OpenCache(rmwtso.CacheDir(t.TempDir()))
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	tests := rmwtso.Suite().Tests()[:3]
	runner := rmwtso.NewRunner(rmwtso.WithCache(cache))

	cold, err := runner.CheckTests(tests...)
	if err != nil {
		t.Fatalf("cold CheckTests: %v", err)
	}
	for _, r := range cold {
		if r.CacheHit {
			t.Fatalf("cold verdict for %s/%s flagged as cache hit", r.Test.Name, r.Atomicity)
		}
	}
	warm, err := runner.CheckTests(tests...)
	if err != nil {
		t.Fatalf("warm CheckTests: %v", err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("verdict counts differ")
	}
	for i := range warm {
		c, w := cold[i], warm[i]
		if !w.CacheHit {
			t.Errorf("warm verdict for %s/%s not served from cache", w.Test.Name, w.Atomicity)
		}
		if w.Holds != c.Holds || w.Matches != c.Matches ||
			w.ValidExecutions != c.ValidExecutions || w.Candidates != c.Candidates {
			t.Errorf("warm verdict for %s/%s differs: %+v vs %+v", w.Test.Name, w.Atomicity, w, c)
		}
		if !w.Outcomes.Equal(c.Outcomes) {
			t.Errorf("warm outcome set for %s/%s differs:\n%v\nvs\n%v",
				w.Test.Name, w.Atomicity, w.Outcomes.Keys(), c.Outcomes.Keys())
		}
	}
	// And the rendered report — what the litmus binary prints — must be
	// identical modulo the hit flag (which the report does not show).
	if rmwtso.RenderLitmusResults(cold) != rmwtso.RenderLitmusResults(warm) {
		t.Errorf("cached report rendering differs")
	}
}

// TestSimulateSourceCached covers the single-run helper used by rmwsim.
func TestSimulateSourceCached(t *testing.T) {
	cache, err := rmwtso.OpenCache()
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	trace := rmwtso.Fig10Trace(4)
	cfg := rmwtso.DefaultSimConfig().WithCores(4)

	cold, hit, err := rmwtso.SimulateSourceCached(cache, cfg, trace.Source(), 1, 1)
	if err != nil || hit {
		t.Fatalf("cold run: hit=%v err=%v", hit, err)
	}
	warm, hit, err := rmwtso.SimulateSourceCached(cache, cfg, trace.Source(), 1, 1)
	if err != nil || !hit {
		t.Fatalf("warm run: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached result differs")
	}
	// Invalid configurations must be rejected before any key is digested.
	bad := cfg
	bad.Cores = 0
	if _, _, err := rmwtso.SimulateSourceCached(cache, bad, trace.Source(), 1, 1); err == nil {
		t.Fatalf("invalid config accepted")
	}
}

// TestDeadlockPolicy pins the one deadlock policy plan jobs and single
// cached runs share: a deadlocked result never counts as a cache hit and
// is never stored; a plan fails on it naming the unit, while
// SimulateSourceCached returns it.
func TestDeadlockPolicy(t *testing.T) {
	t.Run("plan fails on a foreign deadlocked entry", func(t *testing.T) {
		cache, err := rmwtso.OpenCache()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := rmwtso.BuildPlan(tinyOptions(nil), rmwtso.Table3Specs()[:1])
		if err != nil {
			t.Fatal(err)
		}
		u := plan.Units()[0]
		if err := cache.PutSim(u.Key, &rmwtso.SimResult{Deadlocked: true}); err != nil {
			t.Fatal(err)
		}
		_, err = rmwtso.NewRunner(rmwtso.WithCache(cache)).RunPlan(nil, plan, rmwtso.FullShard())
		if err == nil || !strings.Contains(err.Error(), string(u.ID)) || !strings.Contains(err.Error(), "deadlocked") {
			t.Fatalf("want a deadlock error naming unit %s, got %v", u.ID, err)
		}
	})

	t.Run("single run returns a foreign deadlocked entry", func(t *testing.T) {
		cache, err := rmwtso.OpenCache()
		if err != nil {
			t.Fatal(err)
		}
		// The trace completes under deadlock avoidance, so a deadlocked
		// result can only come from the planted entry.
		cfg := rmwtso.DefaultSimConfig().WithCores(2).WithRMWType(rmwtso.Type2)
		src := rmwtso.Fig10Trace(2).Source()
		key := rmwtso.SimCacheKey(cfg, src, 1, 1)
		if err := cache.PutSim(key, &rmwtso.SimResult{Deadlocked: true}); err != nil {
			t.Fatal(err)
		}
		before := cache.Stats()
		res, hit, err := rmwtso.SimulateSourceCached(cache, cfg, src, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deadlocked || hit {
			t.Fatalf("deadlocked=%v hit=%v, want the planted deadlock returned as a miss", res.Deadlocked, hit)
		}
		if st := cache.Stats(); st.Stores != before.Stores || cache.Len() != 1 {
			t.Fatalf("cache stats %+v with %d entries, want nothing new stored", st, cache.Len())
		}
	})

	t.Run("sweep returns naive Fig. 10 deadlocks uncached", func(t *testing.T) {
		cache, err := rmwtso.OpenCache()
		if err != nil {
			t.Fatal(err)
		}
		cfg := rmwtso.DefaultSimConfig().WithCores(2)
		cfg.DisableDeadlockAvoidance = true
		cfg.MaxCycles = 1_000_000
		types := []rmwtso.AtomicityType{rmwtso.Type2, rmwtso.Type3}
		for pass := 0; pass < 2; pass++ {
			results, hits, err := runTypes(cache, cfg, rmwtso.Fig10Trace(2).Source(), 1, types...)
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			for i, res := range results {
				if !res.Deadlocked || hits[i] {
					t.Errorf("pass %d: %s deadlocked=%v cache hit=%v, want a fresh deadlock",
						pass, types[i], res.Deadlocked, hits[i])
				}
			}
		}
		if st := cache.Stats(); st.Stores != 0 || st.Hits() != 0 || cache.Len() != 0 {
			t.Fatalf("cache stats %+v with %d entries, want nothing stored or hit", st, cache.Len())
		}
	})
}
