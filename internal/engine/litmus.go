package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/core"
	"repro/internal/cpp11"
	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/simcache"
)

// LitmusVerdictKey derives the key of one litmus verdict from the
// canonical textual rendering of the test (program, condition and
// expectations) and the atomicity type checked.
func LitmusVerdictKey(t *Test, typ AtomicityType) CacheKey {
	sum := sha256.Sum256([]byte(litmus.Format(t)))
	return CacheKey{
		Kind:         simcache.KindLitmusVerdict,
		ConfigDigest: hex.EncodeToString(sum[:]),
		Trace:        t.Name,
		RMWType:      typ,
	}
}

// checkTestsSharded executes the verdict units of a litmus job the shard
// selects, so a fleet can split one suite across processes exactly like a
// simulation plan: the (test, type) grid is enumerated in deterministic
// order, each unit's stable ID is the UnitID of its content-addressed
// verdict key, and the round-robin selector (or unit-ID predicate) keeps
// a deterministic subset. The returned slice holds only the selected
// units, still in (test, type) order, and every result carries its unit
// ID for correlation.
func (e *Engine) checkTestsSharded(ctx context.Context, shard Shard, m *metrics, tests ...*Test) ([]TestResult, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	types := e.opts.types
	type unit struct {
		ti, yi int
		id     UnitID
	}
	units := make([]unit, 0, len(tests)*len(types))
	pos := 0
	for ti := range tests {
		for yi := range types {
			id := UnitID(LitmusVerdictKey(tests[ti], types[yi]).UnitID())
			if shard.Covers(pos, id) {
				units = append(units, unit{ti, yi, id})
			}
			pos++
		}
	}
	m.planned(len(units))
	results := make([]TestResult, len(units))
	err := e.runUnits(ctx, len(units), func(i int) error {
		u := units[i]
		if e.opts.cache != nil {
			if res, ok := cachedVerdict(e.opts.cache, tests[u.ti], types[u.yi]); ok {
				res.Unit = string(u.id)
				results[i] = res
				m.verdictDone(true)
				e.emitTo(m, Event{Litmus: &results[i]})
				return nil
			}
		}
		res, err := tests[u.ti].RunParallel(ctx, types[u.yi], e.opts.enumWorkers)
		if err != nil {
			return err
		}
		if e.opts.cache != nil {
			storeVerdict(e.opts.cache, res)
		}
		res.Unit = string(u.id)
		results[i] = res
		m.verdictDone(false)
		e.emitTo(m, Event{Litmus: &results[i]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ValidateMappings validates every Table 4 mapping under every configured
// RMW type for each program. Each (program, mapping, type) combination is
// one work unit; the returned slice is ordered (program, mapping, type).
func (e *Engine) ValidateMappings(programs ...*Cpp11Program) ([]MappingResult, error) {
	mappings := cpp11.AllMappings()
	types := e.opts.types
	type unit struct{ pi, mi, yi int }
	units := make([]unit, 0, len(programs)*len(mappings)*len(types))
	for pi := range programs {
		for mi := range mappings {
			for yi := range types {
				units = append(units, unit{pi, mi, yi})
			}
		}
	}
	results := make([]MappingResult, len(units))
	err := e.runUnits(e.opts.ctx, len(units), func(i int) error {
		u := units[i]
		res, err := cpp11.ValidateMappingParallel(e.opts.ctx, programs[u.pi], mappings[u.mi], types[u.yi], e.opts.enumWorkers)
		if err != nil {
			return err
		}
		results[i] = res
		e.emit(Event{Mapping: &results[i]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// cacheableTest reports whether the test's verdict may be cached: its
// key digests the canonical litmus.Format rendering, which represents an
// RMW's Modify function faithfully only for the built-in xadd
// (Modify(v) = v+Value) and xchg (Modify(v) = Value) semantics. A test
// whose RMW carries any other Modify function would alias the key of its
// xchg-rendered twin, so such tests bypass the cache and always
// enumerate. The probe samples several read values per RMW and accepts
// only functions consistent with one of the two renderable semantics.
func cacheableTest(t *Test) bool {
	if t.Program == nil {
		return false
	}
	for _, th := range t.Program.Threads {
		for _, in := range th {
			if in.Kind != memmodel.InstrRMW {
				continue
			}
			if in.Modify == nil {
				return false
			}
			addLike, setLike := true, true
			for _, v := range []memmodel.Value{0, 1, 7, -3, 100} {
				got := in.Modify(v)
				if got != v+in.Value {
					addLike = false
				}
				if got != in.Value {
					setLike = false
				}
			}
			if !addLike && !setLike {
				return false
			}
		}
	}
	return true
}

// litmusVerdict is the serialized payload of one cached verdict. The
// expectation fields of a TestResult are not stored: they derive from the
// Test at hand and are recomputed on a hit, so editing a test's Expected
// map never resurrects a stale Matches flag.
type litmusVerdict struct {
	Holds           bool           `json:"holds"`
	ValidExecutions int            `json:"valid_executions"`
	Candidates      int            `json:"candidates"`
	Outcomes        []core.Outcome `json:"outcomes"`
}

// cachedVerdict reconstructs a TestResult from the cache, marking it as a
// cache hit.
func cachedVerdict(c *simcache.Cache, t *Test, typ AtomicityType) (TestResult, bool) {
	if !cacheableTest(t) {
		return TestResult{}, false
	}
	var v litmusVerdict
	if !c.Get(LitmusVerdictKey(t, typ), &v) {
		return TestResult{}, false
	}
	set := core.NewOutcomeSet()
	for _, o := range v.Outcomes {
		set.Add(o)
	}
	res := TestResult{
		Test:            t,
		Atomicity:       typ,
		Holds:           v.Holds,
		Matches:         true,
		ValidExecutions: v.ValidExecutions,
		Candidates:      v.Candidates,
		Outcomes:        set,
		CacheHit:        true,
	}
	if exp, ok := t.Expected[typ]; ok {
		e := exp
		res.Expected = &e
		res.Matches = v.Holds == exp
	}
	return res, true
}

// storeVerdict persists a fresh verdict best-effort; verdicts of tests
// whose RMW semantics the canonical rendering cannot represent are never
// stored (their keys could alias).
func storeVerdict(c *simcache.Cache, res TestResult) {
	if !cacheableTest(res.Test) {
		return
	}
	_ = c.Put(LitmusVerdictKey(res.Test, res.Atomicity), litmusVerdict{
		Holds:           res.Holds,
		ValidExecutions: res.ValidExecutions,
		Candidates:      res.Candidates,
		Outcomes:        res.Outcomes.Outcomes(),
	})
}
