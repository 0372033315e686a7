package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/coordinator"
)

// ErrInjectedCrash is the error a FaultInjector returns to simulate a
// worker death: the worker abandons its current lease without acking or
// nacking and stops, so the unit is recovered through lease expiry
// exactly like a real crash. A worker loop (in-process or RunPlanWorker)
// that crashed this way reports ErrInjectedCrash from its Run.
var ErrInjectedCrash = coordinator.ErrAbandon

// CoordEvent is one coordination state transition of a dynamic sweep,
// streamed through the engine's observer alongside the sweep's SimRun
// events so progress displays can show leases, requeues and dead letters
// as they happen.
type CoordEvent struct {
	// Kind is the transition: "lease", "ack", "nack", "expire",
	// "requeue", "dead-letter" or "drained".
	Kind string
	// Unit is the plan unit concerned (empty for "drained").
	Unit UnitID
	// Worker is the worker involved, when one is.
	Worker string
	// Attempt is the 1-based attempt the transition concerns.
	Attempt int
	// Reason carries the failure reason for nack/expire/requeue/dead-letter.
	Reason string
}

// FaultInjector decides, before each unit execution of a coordinated
// sweep, whether to inject a fault: return nil to execute normally, a
// plain error to fail the attempt (nacked, retried, eventually
// dead-lettered), or ErrInjectedCrash to kill the worker mid-lease.
// Fault injection exists for tests, demos and CI crash drills.
type FaultInjector func(worker string, unit Unit, attempt int) error

// CoordinationConfig tunes a coordinated sweep: a plan job that sets
// Job.Coordination, a CoordServer or a RunPlanWorker. The zero value
// picks the noted defaults.
type CoordinationConfig struct {
	// Workers is how many in-process pull workers a plan job spawns.
	// Default: the engine's parallelism. Ignored by the HTTP mode, where
	// the fleet size is however many worker processes connect.
	Workers int
	// LeaseTTL is how long a unit lease lives without a heartbeat before
	// the worker is presumed dead and the unit requeued. Default 15s.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one unit is handed out before it
	// is dead-lettered. Default 3.
	MaxAttempts int
	// RetryBackoff and MaxBackoff shape the jittered exponential delay
	// between a unit's attempts. Defaults 250ms and 5s.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Heartbeat is the workers' lease-extension interval. Default
	// LeaseTTL/3.
	Heartbeat time.Duration
	// Seed drives the backoff jitter deterministically. Default 1.
	Seed int64
	// FaultInjector, when non-nil, is consulted before every unit
	// execution. Nil injects nothing.
	FaultInjector FaultInjector
}

// heartbeat resolves the effective heartbeat interval.
func (c CoordinationConfig) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	ttl := c.LeaseTTL
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	return ttl / 3
}

// DeadLetterError reports a coordinated sweep that completed with
// dead-lettered units: every other unit finished (the queue drained),
// but the listed units failed all their attempts. Partial carries the
// completed units and the coordination summary — including the dead
// letters with their full failure history — so callers can still render
// a partial report (Plan.RunsPartial) with the DLQ section instead of
// discarding the sweep.
type DeadLetterError struct {
	// Partial is the shard result of the completed units, with its
	// Coordination section populated (DeadLetters non-empty).
	Partial *ShardResult
}

// Error lists the dead-lettered unit IDs, sorted and bounded.
func (e *DeadLetterError) Error() string {
	dls := e.Partial.Coordination.DeadLetters
	ids := make([]string, len(dls))
	for i, d := range dls {
		ids[i] = d.Unit
	}
	return fmt.Sprintf("rmwtso: %d of %d sweep units dead-lettered after exhausting their attempts: %s",
		len(dls), len(e.Partial.Units)+len(dls), boundedList(ids, listedUnitsMax))
}

// newQueue builds the lease queue over the selected units, feeding its
// transitions to the job's metrics and event streams.
func (x *planExec) newQueue(cfg CoordinationConfig) (*coordinator.Queue, error) {
	ids := make([]string, len(x.selected))
	for i, u := range x.selected {
		ids[i] = string(u.ID)
	}
	return coordinator.NewQueue(coordinator.Config{
		LeaseTTL:     cfg.LeaseTTL,
		MaxAttempts:  cfg.MaxAttempts,
		RetryBackoff: cfg.RetryBackoff,
		MaxBackoff:   cfg.MaxBackoff,
		Seed:         cfg.Seed,
		OnEvent: func(ev coordinator.Event) {
			x.m.coordEvent(ev)
			x.e.emitTo(x.m, Event{Coord: &CoordEvent{
				Kind: string(ev.Kind), Unit: UnitID(ev.Task), Worker: ev.Worker,
				Attempt: ev.Attempt, Reason: ev.Reason,
			}})
		},
	}, ids)
}

// executor adapts planExec.run into a coordinator Executor for one named
// worker: resolve the leased unit, consult the fault injector, run it,
// and hand the typed result to ack, whose bytes become the ack payload.
func (x *planExec) executor(cfg CoordinationConfig, worker string, ack func(UnitResult) ([]byte, error)) coordinator.Executor {
	return func(_ context.Context, task string, attempt int) ([]byte, error) {
		u, ok := x.plan.Unit(UnitID(task))
		if !ok {
			return nil, fmt.Errorf("rmwtso: leased unit %s is not in the plan", task)
		}
		if cfg.FaultInjector != nil {
			if err := cfg.FaultInjector(worker, u, attempt); err != nil {
				return nil, err
			}
		}
		ur, err := x.runUnit(u)
		if err != nil {
			return nil, err
		}
		return ack(ur)
	}
}

// assemble turns a drained queue into the shard result: the slots of the
// acked units in selection order, the queue's final snapshot absorbed
// into the job's metrics and the coordination summary rebuilt from it
// (Metrics.Coordination). A non-empty dead-letter set is reported as a
// *DeadLetterError carrying the partial result.
func (x *planExec) assemble(q *coordinator.Queue, mode string) (*ShardResult, error) {
	snap := q.Snapshot()
	x.m.absorbSnapshot(x.plan, snap)
	acked := q.Payloads()
	res := x.shardResult(func(id UnitID) bool {
		_, ok := acked[string(id)]
		return ok
	})
	res.Coordination = x.m.snapshot().Coordination(mode)
	if len(snap.DeadLetters) > 0 {
		return nil, &DeadLetterError{Partial: res}
	}
	return res, nil
}

// runQueue is the lease-queue dispatch loop: the shard's units are
// leased one at a time to in-process workers, with crash recovery (lease
// expiry requeue), bounded retries and dead-lettering. Workers fill the
// typed result slots directly and ack with no payload.
func (x *planExec) runQueue(ctx context.Context, cfg CoordinationConfig) (*ShardResult, error) {
	q, err := x.newQueue(cfg)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = x.e.opts.parallelism
	}
	ack := func(ur UnitResult) ([]byte, error) {
		x.fill(ur.Unit, ur)
		return nil, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		w := &coordinator.Worker{
			Name:      name,
			Coord:     q,
			Exec:      x.executor(cfg, name, ack),
			Heartbeat: cfg.heartbeat(),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker stops for exactly three reasons: drained (nil),
			// context cancellation (surfaced through drainOrFail), or an
			// injected crash — which is the point of the injection, so the
			// error is not propagated; the queue recovers the lease.
			_ = w.Run(ctx)
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	if err := drainOrFail(ctx, q, workersDone, workers); err != nil {
		return nil, err
	}
	return x.assemble(q, "in-process")
}

// drainOrFail waits for the queue to drain. If every worker exits first
// (all crashed), outstanding leases are still driven to expiry, but a
// unit requeued with nobody left to lease it can never run — that state
// fails fast instead of hanging the sweep.
func drainOrFail(ctx context.Context, q *coordinator.Queue, workersDone <-chan struct{}, workers int) error {
	waitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	waitErr := make(chan error, 1)
	go func() { waitErr <- q.Wait(waitCtx) }()

	select {
	case err := <-waitErr:
		return err
	case <-workersDone:
	}
	for {
		snap := q.Snapshot() // drives lease expiry
		if snap.Drained() {
			return nil
		}
		if snap.Leased == 0 {
			return fmt.Errorf("rmwtso: all %d coordinated workers crashed with %d units unfinished", workers, snap.Pending)
		}
		select {
		case err := <-waitErr:
			if err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// CoordServer coordinates one plan shard for HTTP workers on other
// machines: it owns the pull queue, serves the versioned JSON protocol
// (Handler), and assembles the shard result once the fleet drains the
// queue (Wait).
type CoordServer struct {
	x     *planExec
	queue *coordinator.Queue
	srv   *coordinator.Server
}

// NewCoordServer builds the coordination server for the plan units the
// shard selects under cfg. A non-nil obs receives this sweep's events
// only (the engine-wide observer still sees them too), so one host can
// serve several fleets, each with its own configuration and stream.
func (e *Engine) NewCoordServer(plan *Plan, shard Shard, cfg CoordinationConfig, obs Observer) (*CoordServer, error) {
	m := newJobMetrics(&e.metrics)
	m.obs = obs
	m.remoteAcks = true
	x, err := e.newPlanExec(plan, shard, m)
	if err != nil {
		return nil, err
	}
	m.planned(len(x.selected))
	q, err := x.newQueue(cfg)
	if err != nil {
		return nil, err
	}
	return &CoordServer{x: x, queue: q, srv: coordinator.NewServer(q, plan.Fingerprint())}, nil
}

// Handler returns the HTTP handler speaking the coordinator protocol.
func (s *CoordServer) Handler() http.Handler { return s.srv }

// Snapshot reports the queue's progress for status displays.
func (s *CoordServer) Snapshot() coordinator.Snapshot { return s.queue.Snapshot() }

// Metrics snapshots the sweep's progress counters (including the live
// lease gauge) while the fleet works and after it drains.
func (s *CoordServer) Metrics() Metrics { return s.x.m.snapshot() }

// Wait blocks until every unit is done or dead-lettered, decodes the
// workers' JSON acks into the result slots, then assembles the shard
// result exactly like the in-process mode: a clean sweep returns the
// result (coordination section attached), dead letters return a
// *DeadLetterError with the partial result. Worker crashes are recovered
// through lease expiry; with no worker connected Wait simply keeps
// waiting (cancel ctx to give up).
func (s *CoordServer) Wait(ctx context.Context) (*ShardResult, error) {
	if ctx == nil {
		ctx = s.x.e.opts.ctx
	}
	if err := s.queue.Wait(ctx); err != nil {
		return nil, err
	}
	payloads := s.queue.Payloads()
	for _, u := range s.x.selected {
		data, ok := payloads[string(u.ID)]
		if !ok {
			continue // dead-lettered; listed in the coordination section
		}
		var ur UnitResult
		if err := json.Unmarshal(data, &ur); err != nil {
			return nil, fmt.Errorf("rmwtso: unit %s result payload: %w", u.ID, err)
		}
		s.x.fill(u.ID, ur)
	}
	sr, err := s.x.assemble(s.queue, "http")
	if sr != nil {
		s.x.e.store.AddShard(sr)
	}
	return sr, err
}

// RunPlanWorker runs one pull worker under cfg against the coordinator at
// addr ("http://host:port") until that sweep's queue drains: the worker
// rebuilds the identical plan locally (the fingerprint handshake refuses
// a mismatched one), leases units one at a time, simulates them through
// the same runUnit path as every other mode, and acks checksummed JSON
// results. It returns nil when the queue drains, ErrInjectedCrash when
// the fault injector killed the worker, or the transport/handshake
// error.
func (e *Engine) RunPlanWorker(ctx context.Context, plan *Plan, addr, name string, cfg CoordinationConfig) error {
	if ctx == nil {
		ctx = e.opts.ctx
	}
	if name == "" {
		return fmt.Errorf("rmwtso: coordinated worker needs a name")
	}
	// The worker does not know which units it will lease, so it selects
	// the whole plan; that only affects the materialize-vs-stream choice,
	// never results.
	x, err := e.newPlanExec(plan, FullShard(), newJobMetrics(&e.metrics))
	if err != nil {
		return err
	}
	client := coordinator.Dial(addr, plan.Fingerprint())
	if err := client.WaitReachable(ctx, 30*time.Second); err != nil {
		return err
	}
	w := &coordinator.Worker{
		Name:      name,
		Coord:     client,
		Exec:      x.executor(cfg, name, func(ur UnitResult) ([]byte, error) { return json.Marshal(ur) }),
		Heartbeat: cfg.heartbeat(),
	}
	return w.Run(ctx)
}
