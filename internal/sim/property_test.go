package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// propertySeeds is the number of random traces TestRandomTraceInvariants
// runs under every configuration.
const propertySeeds = 2000

// randomTrace builds a 2- or 3-core trace of 1-12 operations per core
// over three lines, so RMWs, stores and loads collide on every line.
func randomTrace(seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	lines := [3]uint64{0x1000, 0x2000, 0x3000}
	tr := NewTrace(fmt.Sprintf("random/%d", seed), 2+rng.Intn(2))
	for c := 0; c < tr.Cores(); c++ {
		for n := 1 + rng.Intn(12); n > 0; n-- {
			addr := lines[rng.Intn(len(lines))]
			switch rng.Intn(4) {
			case 0:
				tr.Append(c, Read(addr))
			case 1:
				tr.Append(c, Write(addr))
			case 2:
				tr.Append(c, RMW(addr))
			default:
				tr.Append(c, Compute(uint64(1+rng.Intn(200))))
			}
		}
	}
	return tr
}

// TestRandomTraceInvariants runs seeded random traces under every RMW
// type, with and without deadlock avoidance, on write buffers of depth 1,
// 2 and 8. Every run must finish without a panic or an error, deadlock
// only without avoidance, and complete every RMW it issued unless it
// deadlocked. Some deadlocked run must end with an RMW still in flight:
// that is why AvgRMWCost divides by RMWsCompleted and not by RMWs.
func TestRandomTraceInvariants(t *testing.T) {
	inFlightAtDeadlock := 0
	for seed := int64(1); seed <= propertySeeds; seed++ {
		tr := randomTrace(seed)
		for _, typ := range core.AllTypes() {
			for _, naive := range []bool{false, true} {
				for _, depth := range []int{1, 2, 8} {
					cfg := testConfig().WithRMWType(typ)
					cfg.DisableDeadlockAvoidance = naive
					cfg.WriteBufferDepth = depth
					name := fmt.Sprintf("seed=%d/%s/naive=%t/depth=%d", seed, typ, naive, depth)
					res, err := runGuarded(cfg, tr)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Deadlocked && !naive {
						t.Fatalf("%s: deadlocked with deadlock avoidance on", name)
					}
					var issued, completed uint64
					for _, c := range res.PerCore {
						issued += c.RMWs
						completed += c.RMWsCompleted
					}
					switch {
					case completed > issued:
						t.Fatalf("%s: %d RMWs completed but only %d issued", name, completed, issued)
					case completed < issued && !res.Deadlocked:
						t.Fatalf("%s: %d of %d RMWs completed in a run that did not deadlock", name, completed, issued)
					case completed < issued:
						inFlightAtDeadlock++
					}
				}
			}
		}
	}
	if inFlightAtDeadlock == 0 {
		t.Error("no deadlocked run ended with an RMW in flight")
	}
	t.Logf("%d deadlocked runs ended with an RMW in flight", inFlightAtDeadlock)
}

// runGuarded runs the trace, turning a panic into an error.
func runGuarded(cfg Config, tr *Trace) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(tr)
}
