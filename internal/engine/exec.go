package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sim"
	"repro/internal/simcache"
)

// planExec is one execution of a plan shard: the single setup behind
// both dispatch loops (the static pool and the lease queue) and the HTTP
// pull worker. It validates the shard, resolves the cache, selects the
// units, builds each source group's trace at most once, and runs units
// through runUnit into typed result slots indexed by selection position.
//
// The plan — not the engine's WithRMWTypes restriction — determines what
// runs: dropping plan units silently would leave merges incomplete.
type planExec struct {
	e     *Engine
	plan  *Plan
	shard Shard
	base  SimConfig
	cache *simcache.Cache
	m     *metrics

	selected []Unit
	pos      map[UnitID]int // unit ID -> selection position
	sources  []lazySource   // per plan group, used with Materialize

	mu      sync.Mutex
	results []UnitResult // one slot per selected unit
}

// lazySource is one group's materialized trace, built on first use.
type lazySource struct {
	once sync.Once
	src  TraceSource
}

// newPlanExec prepares the execution of the units of plan that shard
// selects. The cache is the engine's (WithCache), else the plan options'
// Cache/CacheDir, so warm shards do zero simulation work.
func (e *Engine) newPlanExec(plan *Plan, shard Shard, m *metrics) (*planExec, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	cache := e.opts.cache
	if cache == nil {
		var err error
		if cache, err = plan.opts.ResultCache(); err != nil {
			return nil, err
		}
	}
	x := &planExec{
		e: e, plan: plan, shard: shard, base: plan.opts.BaseConfig(), cache: cache, m: m,
		selected: plan.Select(shard),
		pos:      map[UnitID]int{},
		sources:  make([]lazySource, len(plan.groups)),
	}
	for i, u := range x.selected {
		x.pos[u.ID] = i
	}
	x.results = make([]UnitResult, len(x.selected))
	return x, nil
}

// source returns the trace source a group's units share: the plan's
// lazy stream, or — when the plan options ask to Materialize and a
// selected unit of the group still misses the cache — that stream
// materialized once for this execution.
func (x *planExec) source(group int) TraceSource {
	g := &x.plan.groups[group]
	if !x.plan.opts.Materialize {
		return g.src
	}
	ls := &x.sources[group]
	ls.once.Do(func() {
		ls.src = g.src
		if !x.groupCached(g) {
			ls.src = sim.Materialize(g.src).Source()
		}
	})
	return ls.src
}

// groupCached reports whether every selected unit of the group is
// already in the cache, so materializing its trace would be wasted work.
func (x *planExec) groupCached(g *planGroup) bool {
	if x.cache == nil {
		return false
	}
	for _, ui := range g.units {
		u := x.plan.units[ui]
		if _, sel := x.pos[u.ID]; sel && !x.cache.Has(u.Key) {
			return false
		}
	}
	return true
}

// run executes one plan unit. A deadlocked run fails the unit: only the
// Fig. 10 demo expects deadlock, and it runs as a sweep, not a plan.
func (x *planExec) run(u Unit) (UnitResult, error) {
	r, err := x.e.runUnit(x.base, u, x.source(u.group), x.cache, x.m)
	if err != nil {
		return UnitResult{}, err
	}
	if r.Result.Deadlocked {
		return UnitResult{}, deadlockError(u)
	}
	return UnitResult{Unit: u.ID, Trace: u.Trace, Type: u.Type, Seed: u.Seed, CacheHit: r.CacheHit, Result: r.Result}, nil
}

// fill stores a unit's result in its selection slot. A unit whose lease
// expired mid-run can finish twice; both runs produce the same result.
func (x *planExec) fill(id UnitID, ur UnitResult) {
	x.mu.Lock()
	x.results[x.pos[id]] = ur
	x.mu.Unlock()
}

// shardResult wraps the slots for which done holds, in selection order,
// as the shard artifact.
func (x *planExec) shardResult(done func(UnitID) bool) *ShardResult {
	x.mu.Lock()
	defer x.mu.Unlock()
	units := make([]UnitResult, 0, len(x.results))
	for i, u := range x.selected {
		if done(u.ID) {
			units = append(units, x.results[i])
		}
	}
	return &ShardResult{
		Plan:     x.plan.fp,
		Index:    x.shard.Index,
		Count:    x.shard.Count,
		Filtered: x.shard.Only != nil,
		Units:    units,
	}
}

// runPlanJob executes a plan job: on the static worker pool, which fails
// fast on the first unit error, or — when the job asks for coordination —
// through its own lease queue, which retries and dead-letters. Unit
// identities, order and results are exactly the plan's either way.
func (e *Engine) runPlanJob(ctx context.Context, plan *Plan, shard Shard, m *metrics, coord *CoordinationConfig) (*ShardResult, error) {
	x, err := e.newPlanExec(plan, shard, m)
	if err != nil {
		return nil, err
	}
	m.planned(len(x.selected))
	if coord != nil {
		return x.runQueue(ctx, *coord)
	}
	err = e.runUnitsCtx(ctx, len(x.selected), func(i int) error {
		ur, err := x.run(x.selected[i])
		if err != nil {
			return err
		}
		x.fill(ur.Unit, ur)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return x.shardResult(func(UnitID) bool { return true }), nil
}

// runUnit executes one unit against src — serving it from the cache when
// possible, simulating and storing otherwise — and emits its SimRun
// event. It is the single execution path behind the static pool, the
// lease queue's workers (in-process and HTTP) and the trace sweeps, so
// the modes cannot drift. They share one deadlock policy: a deadlocked
// result never counts as a cache hit and is never stored. A deadlocked
// cache entry (only a foreign writer can leave one) comes back like a
// fresh deadlock; plan callers turn it into deadlockError, sweeps return
// it.
func (e *Engine) runUnit(cfg SimConfig, u Unit, src TraceSource, cache *simcache.Cache, m *metrics) (SimRun, error) {
	run := SimRun{Unit: u.ID, Trace: u.Trace, Type: u.Type}
	if cache != nil {
		run.Result, run.CacheHit = cache.GetSim(u.Key)
	}
	if run.Result == nil {
		res, err := simulateSource(cfg.WithRMWType(u.Type), src)
		if err != nil {
			return SimRun{}, err
		}
		if cache != nil && !res.Deadlocked {
			_ = cache.PutSim(u.Key, res)
		}
		run.Result = res
	}
	run.CacheHit = run.CacheHit && !run.Result.Deadlocked
	m.unitDone(run.CacheHit)
	e.emitTo(m, Event{Sim: &run})
	return run, nil
}

// deadlockError reports a plan unit whose run wedged.
func deadlockError(u Unit) error {
	return fmt.Errorf("rmwtso: unit %s deadlocked", unitDesc(u.ID, u.Trace, u.Type))
}
