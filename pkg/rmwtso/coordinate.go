package rmwtso

import (
	"context"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// Coordination summarizes how a dynamically coordinated sweep executed:
// per-worker unit counts, retry/expiry churn and the dead-lettered units.
type Coordination = experiments.Coordination

// CoordWorker is one worker's traffic in a coordinated sweep.
type CoordWorker = experiments.CoordWorker

// DeadUnit is one unit that exhausted its attempt budget.
type DeadUnit = experiments.DeadUnit

// ErrInjectedCrash is the error a FaultInjector returns to simulate a
// worker death: the worker abandons its current lease without acking or
// nacking and stops, so the unit is recovered through lease expiry
// exactly like a real crash. A worker loop (in-process or RunPlanWorker)
// that crashed this way reports ErrInjectedCrash from its Run.
var ErrInjectedCrash = engine.ErrInjectedCrash

// CoordEvent is one coordination state transition of a dynamic sweep,
// streamed through the Runner's observer alongside the sweep's SimRun
// events so progress displays can show leases, requeues and dead letters
// as they happen.
type CoordEvent = engine.CoordEvent

// FaultInjector decides, before each unit execution of a coordinated
// sweep, whether to inject a fault: return nil to execute normally, a
// plain error to fail the attempt (nacked, retried, eventually
// dead-lettered), or ErrInjectedCrash to kill the worker mid-lease.
// Fault injection exists for tests, demos and CI crash drills.
type FaultInjector = engine.FaultInjector

// CoordinationConfig tunes a coordinated sweep: a plan Job that sets
// Coordination, a CoordServer or a RunPlanWorker. The zero value picks
// the noted defaults.
type CoordinationConfig = engine.CoordinationConfig

// DeadLetterError reports a coordinated sweep that completed with
// dead-lettered units: every other unit finished (the queue drained),
// but the listed units failed all their attempts. Partial carries the
// completed units and the coordination summary — including the dead
// letters with their full failure history — so callers can still render
// a partial report (Plan.RunsPartial) with the DLQ section instead of
// discarding the sweep.
type DeadLetterError = engine.DeadLetterError

// CoordServer coordinates one plan shard for HTTP workers on other
// machines: it owns the pull queue, serves the versioned JSON protocol
// (Handler), and assembles the shard result once the fleet drains the
// queue (Wait). Build it from the Runner whose observer should stream
// the sweep's coordination events.
type CoordServer = engine.CoordServer

// NewCoordServer builds the coordination server for the plan units the
// shard selects under cfg. A non-nil obs receives this sweep's events
// only; the Runner's observer still sees them too.
func (r *Runner) NewCoordServer(plan *Plan, shard Shard, cfg CoordinationConfig, obs Observer) (*CoordServer, error) {
	return r.eng.NewCoordServer(plan, shard, cfg, obs)
}

// RunPlanWorker runs one pull worker under cfg against the coordinator at addr
// ("http://host:port") until that sweep's queue drains: the worker
// rebuilds the identical plan locally (the fingerprint handshake refuses
// a mismatched one), leases units one at a time, simulates them through
// the same path as every other mode, and acks checksummed results. It returns nil when the queue drains, ErrInjectedCrash when
// the fault injector killed the worker, or the transport/handshake
// error.
func (r *Runner) RunPlanWorker(ctx context.Context, plan *Plan, addr, name string, cfg CoordinationConfig) error {
	return r.eng.RunPlanWorker(ctx, plan, addr, name, cfg)
}
