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

// runUnit executes one plan unit through SimulateCached and emits its
// SimRun event. It is the single execution path behind the static pool
// and the lease queue's workers (in-process and HTTP), so the modes
// cannot drift. A deadlocked run fails the unit: only the Fig. 10 demo
// expects deadlock, and it runs outside the plan pipeline.
func (x *planExec) runUnit(u Unit) (UnitResult, error) {
	res, hit, err := SimulateCached(x.cache, u.Key, x.base.WithRMWType(u.Type), x.source(u.group))
	if err != nil {
		return UnitResult{}, err
	}
	x.m.unitDone(hit)
	x.e.emitTo(x.m, Event{Sim: &SimRun{Unit: u.ID, Trace: u.Trace, Type: u.Type, Result: res, CacheHit: hit}})
	if res.Deadlocked {
		return UnitResult{}, deadlockError(u)
	}
	return UnitResult{Unit: u.ID, Trace: u.Trace, Type: u.Type, Seed: u.Seed, CacheHit: hit, Result: res}, nil
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
	err = e.runUnits(ctx, len(x.selected), func(i int) error {
		ur, err := x.runUnit(x.selected[i])
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

// SimulateCached runs cfg on src through cache under key: a stored
// result is served without simulating (hit), a fresh one is simulated
// and stored. It is the one deadlock policy of every cached run — plan
// units and single runs alike: a deadlocked result never counts as a
// hit and is never stored. A deadlocked entry (only a foreign writer can
// leave one) comes back like a fresh deadlock, not re-simulated. A nil
// cache simulates every call.
func SimulateCached(cache *simcache.Cache, key CacheKey, cfg SimConfig, src TraceSource) (*SimResult, bool, error) {
	var res *SimResult
	hit := false
	if cache != nil {
		res, hit = cache.GetSim(key)
	}
	if res == nil {
		s, err := sim.New(cfg)
		if err != nil {
			return nil, false, err
		}
		if res, err = s.RunSource(src); err != nil {
			return nil, false, err
		}
		if cache != nil && !res.Deadlocked {
			_ = cache.PutSim(key, res)
		}
	}
	return res, hit && !res.Deadlocked, nil
}

// deadlockError reports a plan unit whose run wedged.
func deadlockError(u Unit) error {
	return fmt.Errorf("rmwtso: unit %s deadlocked", unitDesc(u.ID, u.Trace, u.Type))
}
