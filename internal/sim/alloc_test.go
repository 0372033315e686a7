package sim_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simAllocBudget bounds the allocations of one simulator run of the
// pre-built radiosity trace below. What remains is set-up (caches,
// directory, write buffers, per-core state) and amortized growth of the
// event queue and the directory's line tables; none of it scales per
// event or per memop.
const simAllocBudget = 1000

// TestSimRunAllocBudget runs the trace of the repository's
// BenchmarkSimMaterializedTrace and BenchmarkSimStreamedTrace (radiosity,
// 8 cores, 256 iterations, seed 31, type-2 RMWs) from its materialized
// form, so only the simulator's own allocations are counted.
func TestSimRunAllocBudget(t *testing.T) {
	profile, err := workload.FindProfile("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	profile.Iterations = 256
	trace, err := workload.Generator{Cores: 8, Seed: 31}.Generate(profile)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.DefaultConfig().WithCores(8).WithRMWType(core.Type2))
	if err != nil {
		t.Fatal(err)
	}
	var res *sim.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err = s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.Cycles != 357127 {
		t.Errorf("cycles = %d, want 357127 (the benchmark's pinned figure)", res.Cycles)
	}
	t.Logf("%.0f allocations per run, %d memops", allocs, res.TotalMemOps())
	if allocs > simAllocBudget {
		t.Errorf("simulator run made %.0f allocations, budget %d", allocs, simAllocBudget)
	}
}

// TestEventQueueStaysWithinCoreBound checks the event queue's peak depth
// on every golden run against cores × (WriteBufferDepth + 1). The bound
// holds by construction: an in-order core has at most one instruction
// continuation scheduled at a time (a step, a type-1 unlock, or a weak
// RMW's write-half push), and each pending write-buffer entry has at most
// one (its ownership arrival or its retry after an unlock). Only entries
// that are ready can leave the buffer, so neither kind outlives its slot.
// The queue is therefore O(cores), independent of trace length.
func TestEventQueueStaysWithinCoreBound(t *testing.T) {
	for _, r := range goldenRuns(t) {
		s, err := sim.New(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, peak, err := sim.RunSourcePeak(s, r.src)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		bound := r.cfg.Cores * (r.cfg.WriteBufferDepth + 1)
		if peak > bound {
			t.Errorf("%s: peak queue depth %d exceeds cores × (WriteBufferDepth + 1) = %d", r.name, peak, bound)
		}
		if peak == 0 {
			t.Errorf("%s: no events queued", r.name)
		}
	}
}

// TestResultSizeIndependentOfTraceLength runs one Table 3 profile at two
// trace lengths and checks that the JSON-encoded result, which is what
// the result cache, shard artifacts and the HTTP service store and send,
// stays small in both: a result holds counters, not a record per
// operation.
func TestResultSizeIndependentOfTraceLength(t *testing.T) {
	const maxBytes = 4 << 10
	p, err := workload.FindProfile("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.DefaultConfig().WithCores(8).WithRMWType(core.Type2))
	if err != nil {
		t.Fatal(err)
	}
	var rmws []uint64
	for _, scale := range []float64{0.25, 1} {
		res, err := s.RunSource(quickSource(t, p, 8, scale))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("scale %g: %d RMWs, %d-byte result", scale, res.TotalRMWs(), len(b))
		if len(b) >= maxBytes {
			t.Errorf("scale %g: result is %d bytes of JSON, want under %d", scale, len(b), maxBytes)
		}
		rmws = append(rmws, res.TotalRMWs())
	}
	if rmws[1] <= rmws[0] {
		t.Errorf("the longer trace ran %d RMWs, the shorter %d: the lengths did not differ", rmws[1], rmws[0])
	}
}
