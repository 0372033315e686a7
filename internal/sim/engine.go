// Package sim is the cycle-approximate chip-multiprocessor simulator used
// to evaluate the paper's RMW implementations (§3, §4). It stands in for
// the GEM5-based platform of the paper: in-order cores with per-core write
// buffers, private L1 caches and a shared distributed L2 kept coherent by a
// MOESI directory over a 2D mesh (Table 2), executing memory-operation
// traces produced by internal/workload.
//
// The simulator implements the three RMW flavours:
//
//   - type-1 (baseline): drain the write buffer, then obtain exclusive
//     ownership of the RMW's line, lock it, perform the read and write, and
//     unlock;
//   - type-2 (§3.2): retire the RMW as soon as the read half owns and locks
//     the line; the write half drains from the write buffer later, with the
//     bloom-filter addr-list protocol avoiding write-deadlocks;
//   - type-3 (§3.3): like type-2 but the read half only needs read
//     permission (directory locking), removing the invalidation delay.
//
// Per-RMW costs are split into the write-buffer component and the Ra/Wa
// component exactly as in Fig. 11(a), and the per-benchmark execution-time
// overhead of Fig. 11(b) is derived from the same runs.
package sim

import "fmt"

// Event is one scheduled continuation: at cycle At, the handler passed to
// Engine.Run resumes core Core with continuation tag Tag. The engine
// orders events and never interprets Core or Tag, so an event is a plain
// 32-byte value and scheduling one allocates nothing once the queue has
// grown to its working depth.
type Event struct {
	// At is the cycle the event fires.
	At uint64
	// Core is the core whose continuation runs.
	Core int
	// Tag names the continuation (and its argument) for the handler.
	Tag uint64
	// seq is the scheduling order, the tie break between events of the
	// same cycle.
	seq uint64
}

// before reports whether a fires before b: earlier cycle first, then
// earlier scheduling order, so runs are deterministic.
func (a *Event) before(b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event simulation engine driven by a
// cycle counter. Its queue is a binary min-heap of Event values ordered by
// (At, seq).
type Engine struct {
	now    uint64
	seq    uint64
	events []Event
	// executed counts processed events, a cheap progress metric; peak is
	// the deepest the queue has been.
	executed uint64
	peak     int
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled-but-not-yet-run events.
func (e *Engine) Pending() int { return len(e.events) }

// PeakPending returns the largest number of events ever pending at once.
func (e *Engine) PeakPending() int { return e.peak }

// Schedule queues ev to fire at ev.At. Scheduling in the past (before the
// current cycle) is a modelling bug and panics.
func (e *Engine) Schedule(ev Event) {
	if ev.At < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before current cycle %d", ev.At, e.now))
	}
	ev.seq = e.seq
	e.seq++
	h := append(e.events, ev)
	e.events = h
	if len(h) > e.peak {
		e.peak = len(h)
	}
	// Sift the hole at the tail up to the new event's place.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the earliest event.
func (e *Engine) pop() Event {
	h := e.events
	top := h[0]
	last := len(h) - 1
	moved := h[last]
	h = h[:last]
	e.events = h
	if last == 0 {
		return top
	}
	// Sift the hole at the root down to the moved event's place.
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&moved) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = moved
	return top
}

// Run hands events to handle in (At, scheduling order) until the queue is
// empty or the next event lies beyond the cycle limit. It returns an error
// if the limit was hit, which usually means the simulated system
// livelocked; the event that exceeded it stays pending.
func (e *Engine) Run(limit uint64, handle func(Event)) error {
	for len(e.events) > 0 {
		if at := e.events[0].At; at > limit {
			return fmt.Errorf("sim: cycle limit %d exceeded at cycle %d", limit, at)
		}
		ev := e.pop()
		e.now = ev.At
		e.executed++
		handle(ev)
	}
	return nil
}
