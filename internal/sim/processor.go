package sim

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/sim/directory"
	"repro/internal/sim/mesh"
	"repro/internal/sim/writebuffer"
)

// cont names a processor continuation: what the core does next at a given
// cycle. A continuation runs when its engine event fires, when the
// directory resumes a request parked on a locked line, when a forced drain
// empties the write buffer, or when a stalled store gets a buffer slot.
// Continuations carry at most one argument (a write-buffer entry ID); the
// context of the in-flight instruction lives in the processor's fields.
type cont uint8

const (
	contNone cont = iota
	// contStep pulls and executes the next trace operation.
	contStep
	// contReadDone: a load's GetS completed.
	contReadDone
	// contWriteRetired: a store retired into the write buffer.
	contWriteRetired
	// contFenceDrained: a fence's forced drain emptied the buffer.
	contFenceDrained
	// contRMWDrained: the forced drain of a type-1 (or reverted weak) RMW
	// emptied the buffer; request and lock the line.
	contRMWDrained
	// contRMWLocked: that RMW owns and has locked its line.
	contRMWLocked
	// contRMWUnlock: that RMW's write performed; unlock and retire.
	contRMWUnlock
	// contWeakLocked: a weak RMW's read half holds and has locked its
	// line.
	contWeakLocked
	// contWeakPush: retire that RMW's write half into the write buffer.
	contWeakPush
	// contWeakRetired: the write half is in the buffer; the RMW retires.
	contWeakRetired
	// contEntryOwned: ownership for write-buffer entry arg arrived.
	contEntryOwned
	// contEntryReady: mark entry arg ready and drain the buffer head.
	contEntryReady
	// contEntryUnlocked: the line that blocked head entry arg was
	// unlocked.
	contEntryUnlocked
	// contEntryRetry: entry arg re-requests ownership after the unlock.
	contEntryRetry
)

// tagBits is how far a continuation tag shifts the argument past the
// continuation kind. Tags are the one currency of waiting: engine events
// and parked directory requests both carry them.
const tagBits = 8

// tag packs continuation c and its argument.
func tag(c cont, arg uint64) uint64 { return uint64(c) | arg<<tagBits }

// processor is one simulated in-order core: it pulls operations from its
// stream, talks to the directory for loads and RMWs, retires stores into
// its write buffer and runs the background drain of that buffer. The
// stream is consumed one op at a time, so the processor's memory footprint
// is independent of trace length.
//
// Every wait is a continuation (cont) rather than a closure. The engine
// queues (cycle, core, tag) values and the directory parks denied
// requests as records carrying a tag, where a tag packs the continuation
// and its argument. The forced-drain and buffer-slot waits are single
// fields, because an in-order core has at most one instruction in flight. The instruction's context (start cycle,
// line, drain and lock cycles, broadcast and revert flags) lives in
// fields too, so the steady state allocates nothing per operation. Events
// that advance the instruction stream go through the engine, so
// arbitrarily long traces never build up call-stack depth either.
type processor struct {
	id     int
	cfg    Config
	engine *Engine
	dir    *directory.Directory
	topo   *mesh.Topology
	wb     *writebuffer.Buffer
	addrs  *bloom.AddrList

	stream OpStream

	stats CoreStats

	// noteRMWLine lets the simulator track globally-unique RMW lines.
	noteRMWLine func(line uint64)

	// The in-flight instruction: its start cycle and line; for an RMW the
	// cycle its forced drain began (after any broadcast) and ended, the
	// cycle its line was locked, and its broadcast latency and flags.
	opStart, opLine   uint64
	rmwStart, drained uint64
	locked, bcastLat  uint64
	broadcast         bool
	reverted          bool
	// weakLocked is set while a weak RMW holds its line's lock but has not
	// yet buffered its write half.
	weakLocked bool

	// pushCont is the continuation of a store stalled on a full write
	// buffer (contNone when no store is stalled); pushAt, pushLine and
	// pushRMW describe the store.
	pushCont cont
	pushAt   uint64
	pushLine uint64
	pushRMW  bool
	// emptyCont is the continuation of a forced drain, run when the buffer
	// empties; while it is set the drain is forced, which (with
	// ParallelDrain) makes the drainer issue every pending entry
	// concurrently.
	emptyCont cont

	done bool
}

func newProcessor(id int, cfg Config, engine *Engine, dir *directory.Directory, topo *mesh.Topology, addrs *bloom.AddrList, stream OpStream, noteRMWLine func(uint64)) *processor {
	return &processor{
		id:          id,
		cfg:         cfg,
		engine:      engine,
		dir:         dir,
		topo:        topo,
		wb:          writebuffer.New(cfg.WriteBufferDepth),
		addrs:       addrs,
		stream:      stream,
		stats:       CoreStats{Core: id},
		noteRMWLine: noteRMWLine,
	}
}

// schedule queues continuation c (with arg) at the given cycle.
func (p *processor) schedule(at uint64, c cont, arg uint64) {
	p.engine.Schedule(Event{At: at, Core: p.id, Tag: tag(c, arg)})
}

// start begins execution at cycle 0.
func (p *processor) start() {
	p.schedule(0, contStep, 0)
}

// run executes continuation c with argument arg at cycle at.
func (p *processor) run(c cont, arg, at uint64) {
	switch c {
	case contStep:
		p.step(at)
	case contReadDone:
		p.stats.ReadStallCycles += at - p.opStart
		p.schedule(at, contStep, 0)
	case contWriteRetired:
		if at > p.opStart+1 {
			p.stats.WriteStallCycles += at - p.opStart - 1
		}
		p.schedule(at, contStep, 0)
	case contFenceDrained:
		p.schedule(at, contStep, 0)
	case contRMWDrained:
		p.drained = at
		p.access(p.opLine, directory.GetM, true, at, contRMWLocked, 0)
	case contRMWLocked:
		// The write performs into the locked, owned line.
		p.schedule(at+1, contRMWUnlock, 0)
	case contRMWUnlock:
		p.dir.Unlock(p.opLine, p.id, at)
		p.recordRMW(p.drained-p.rmwStart, (at-p.drained)+p.bcastLat)
		p.step(at)
	case contWeakLocked:
		p.weakLocked = true
		p.schedule(at, contWeakPush, 0)
	case contWeakPush:
		p.locked = at
		p.weakLocked = false
		p.pushWrite(at, p.opLine, true, contWeakRetired)
	case contWeakRetired:
		wbWait := uint64(0)
		if at > p.locked+1 {
			wbWait = at - p.locked - 1 // stalled for a free slot
		}
		p.recordRMW(wbWait, (p.locked-p.opStart)+1)
		p.schedule(at, contStep, 0)
	case contEntryOwned:
		// Completion is deferred through the engine so the buffer's state
		// only changes at the completion cycle.
		p.schedule(at, contEntryReady, arg)
	case contEntryReady:
		p.completeEntry(p.entry(arg), at)
	case contEntryUnlocked:
		p.schedule(at+p.cfg.LockRetryCycles, contEntryRetry, arg)
	case contEntryRetry:
		p.access(p.entry(arg).Line, directory.GetM, false, at, contEntryOwned, arg)
	default:
		panic(fmt.Sprintf("sim: core %d: unknown continuation %d", p.id, c))
	}
}

// entry returns the pending write-buffer entry with the given ID. An
// entry with an outstanding continuation cannot have left the buffer
// (only ready entries leave), so a miss is a modelling bug.
func (p *processor) entry(id uint64) *writebuffer.Entry {
	e := p.wb.Find(id)
	if e == nil {
		panic(fmt.Sprintf("sim: core %d: write-buffer entry %d left the buffer with a continuation pending", p.id, id))
	}
	return e
}

// access issues a coherence request (locking the line if lock is set)
// whose completion runs continuation c with arg: at once if the directory
// completes it, or when the directory resumes it after the line's lock is
// released.
func (p *processor) access(line uint64, kind directory.ReqKind, lock bool, at uint64, c cont, arg uint64) {
	var done uint64
	var ok bool
	if lock {
		done, ok = p.dir.AccessAndLock(p.id, line, kind, at, tag(c, arg))
	} else {
		done, ok = p.dir.Access(p.id, line, kind, at, tag(c, arg))
	}
	if ok {
		p.run(c, arg, done)
	}
}

// resume runs the continuation named by tag t: an engine event's or a
// parked directory request's.
func (p *processor) resume(t, at uint64) {
	p.run(cont(t&(1<<tagBits-1)), t>>tagBits, at)
}

// step pulls and executes the next trace operation.
func (p *processor) step(at uint64) {
	op, ok := p.stream.Next()
	if !ok {
		p.finish(at)
		return
	}
	switch op.Kind {
	case OpCompute:
		p.stats.Computes++
		p.schedule(at+op.Think, contStep, 0)
	case OpRead:
		p.read(at, op.Addr)
	case OpWrite:
		p.writeOp(at, op.Addr)
	case OpRMW:
		p.rmw(at, op.Addr)
	case OpFence:
		p.stats.Fences++
		p.drainAll(at, contFenceDrained)
	default:
		// Unknown kinds are skipped; traces are produced in-process so this
		// is unreachable in practice.
		p.schedule(at, contStep, 0)
	}
}

// finish records completion of the core's trace. Any writes still sitting
// in the write buffer keep draining in the background; the core's finish
// time (and hence the benchmark's execution time) is when its last
// instruction retired, matching how execution time is normally reported.
func (p *processor) finish(at uint64) {
	p.done = true
	p.stats.Cycles = at
}

// read performs a load: store-to-load forwarding from the write buffer if
// possible, otherwise a GetS coherence request.
func (p *processor) read(at uint64, addr uint64) {
	p.stats.Reads++
	line := p.cfg.LineOf(addr)
	if p.wb.Contains(line) {
		// Forwarded from the youngest matching store in one cycle.
		p.schedule(at+1, contStep, 0)
		return
	}
	p.opStart = at
	p.access(line, directory.GetS, false, at, contReadDone, 0)
}

// writeOp retires a store into the write buffer and moves on; the store
// performs later when it reaches the buffer head.
func (p *processor) writeOp(at uint64, addr uint64) {
	p.stats.Writes++
	p.opStart = at
	p.pushWrite(at, p.cfg.LineOf(addr), false, contWriteRetired)
}

// pushWrite appends a write to the write buffer, stalling until space is
// available, and runs continuation c one cycle after the push (the retire
// cycle).
func (p *processor) pushWrite(at uint64, line uint64, isRMWWrite bool, c cont) {
	if p.wb.Full() {
		if p.pushCont != contNone {
			panic(fmt.Sprintf("sim: core %d: two stores stalled on the write buffer", p.id))
		}
		p.pushCont, p.pushAt, p.pushLine, p.pushRMW = c, at, line, isRMWWrite
		return
	}
	if _, err := p.wb.Push(line, isRMWWrite, at); err != nil {
		// Full was checked above; a failure here is a modelling bug.
		panic(err)
	}
	p.kickDrain(at)
	p.run(c, 0, at+1)
}

// kickDrain makes sure the write-buffer drainer is working: up to
// MaxOutstandingDrains entries from the front of the buffer have their
// ownership requests outstanding (writes still complete in FIFO order);
// during a forced drain with ParallelDrain every pending entry is issued
// concurrently.
func (p *processor) kickDrain(at uint64) {
	if p.wb.Empty() {
		p.notifyEmpty(at)
		return
	}
	limit := p.cfg.MaxOutstandingDrains
	if limit <= 0 {
		limit = 1
	}
	if p.emptyCont != contNone && p.cfg.ParallelDrain {
		limit = p.wb.Len()
	}
	outstanding := 0
	for i := 0; i < p.wb.Len() && outstanding < limit; i++ {
		e := p.wb.At(i)
		if e.InFlight && !e.Ready {
			outstanding++
			continue
		}
		if !e.InFlight {
			// Sends the entry's ownership request; completion arrives as
			// contEntryOwned.
			e.InFlight = true
			p.access(e.Line, directory.GetM, false, at, contEntryOwned, e.ID)
			outstanding++
		}
	}
}

// completeEntry records that a pending write's ownership response has
// arrived. Under TSO writes leave the buffer strictly in FIFO order, so the
// entry is only marked ready; drainReady completes it once it reaches the
// head.
func (p *processor) completeEntry(e *writebuffer.Entry, at uint64) {
	e.Ready = true
	e.ReadyAt = at
	p.drainReady(at)
}

// drainReady completes ready writes from the head of the buffer, in order.
// A head write whose line is locked by another processor's RMW is denied
// (the paper's cache-line locking) and retried after the unlock -- this is
// exactly the dependency that produces the Fig. 10 write-deadlock when
// deadlock avoidance is disabled.
func (p *processor) drainReady(at uint64) {
	for {
		head := p.wb.Head()
		if head == nil {
			p.notifyEmpty(at)
			return
		}
		if !head.Ready {
			p.kickDrain(at)
			return
		}
		if head.ReadyAt > at {
			at = head.ReadyAt
		}
		if p.dir.WaitForUnlock(head.Line, p.id, tag(contEntryUnlocked, head.ID)) {
			head.Ready = false
			return
		}
		line, isRMWWrite := head.Line, head.IsRMWWrite
		p.wb.Remove(head.ID)
		if isRMWWrite && !p.holdsRMWLock(line) {
			// Completing the write half of a weak RMW releases its line
			// lock, letting denied coherence requests proceed.
			p.dir.Unlock(line, p.id, at)
		}
		p.notifySlotFree(at)
		p.kickDrain(at)
	}
}

// holdsRMWLock reports whether another weak RMW of this core still needs
// the line's lock: one whose write half is buffered, the in-flight one
// between locking the line and buffering its write half, or one whose
// write half is stalled on a full buffer. Without deadlock avoidance a
// core can re-lock its own locked line with a second RMW (the lock is
// re-entrant), and the lock must then be held until the last of those
// write halves performs.
func (p *processor) holdsRMWLock(line uint64) bool {
	if p.weakLocked && p.opLine == line {
		return true
	}
	if p.pushCont != contNone && p.pushRMW && p.pushLine == line {
		return true
	}
	for i := 0; i < p.wb.Len(); i++ {
		if e := p.wb.At(i); e.IsRMWWrite && e.Line == line {
			return true
		}
	}
	return false
}

// drainAll waits until the write buffer is empty (a forced drain), then
// runs continuation c.
func (p *processor) drainAll(at uint64, c cont) {
	if p.wb.Empty() {
		p.run(c, 0, at)
		return
	}
	if p.emptyCont != contNone {
		panic(fmt.Sprintf("sim: core %d: two forced drains in flight", p.id))
	}
	p.emptyCont = c
	p.kickDrain(at)
}

// notifyEmpty ends a forced drain, running its continuation.
func (p *processor) notifyEmpty(at uint64) {
	c := p.emptyCont
	p.emptyCont = contNone
	if c != contNone {
		p.run(c, 0, at)
	}
}

// notifySlotFree resumes a store stalled on a full buffer.
func (p *processor) notifySlotFree(at uint64) {
	if p.pushCont == contNone || p.wb.Full() {
		return
	}
	c := p.pushCont
	p.pushCont = contNone
	if at < p.pushAt {
		at = p.pushAt
	}
	p.pushWrite(at, p.pushLine, p.pushRMW, c)
}

// recordRMW accounts the completion of the in-flight RMW, whose cost was
// wb write-buffer cycles plus raWa cycles for its read and write halves.
func (p *processor) recordRMW(wb, raWa uint64) {
	p.stats.RMWsCompleted++
	p.stats.RMWWriteBufferCycles += wb
	p.stats.RMWRaWaCycles += raWa
	if p.reverted {
		p.stats.RMWReverts++
	}
	if p.broadcast {
		p.stats.RMWBroadcasts++
	}
}

// rmw starts an RMW under the configured implementation. The baseline
// strongly-ordered type-1 RMW (§3.1) drains the write buffer, obtains
// exclusive ownership, locks, performs the read and the write, unlocks,
// and only then lets the next instruction retire (contRMWDrained ->
// contRMWLocked -> contRMWUnlock).
func (p *processor) rmw(at uint64, addr uint64) {
	p.stats.RMWs++
	line := p.cfg.LineOf(addr)
	if p.noteRMWLine != nil {
		p.noteRMWLine(line)
	}
	p.opStart, p.opLine = at, line
	p.rmwStart, p.bcastLat = at, 0
	p.broadcast, p.reverted = false, false
	if p.cfg.RMWType == core.Type1 {
		p.drainAll(at, contRMWDrained)
		return
	}
	p.rmwWeak(at, line)
}

// rmwWeak implements the type-2 and type-3 RMWs (§3.2, §3.3). The read half
// acquires and locks the line (exclusively for type-2; with read permission
// only for type-3), the RMW retires, and the write half drains from the
// write buffer later, unlocking the line when it completes. The bloom-filter
// addr-list protocol reverts to a type-1-style drain whenever a pending
// write might target a line locked by another processor's RMW.
func (p *processor) rmwWeak(at uint64, line uint64) {
	if !p.cfg.DisableDeadlockAvoidance {
		p.broadcast = p.addrs.LookupOrBroadcast(p.id, line)
		if p.broadcast {
			p.bcastLat = p.topo.BroadcastLatency(p.id)
		}
		for i := 0; i < p.wb.Len(); i++ {
			if p.addrs.ConflictsWithPendingWrite(p.id, p.wb.At(i).Line) {
				p.reverted = true
				break
			}
		}
	}
	start := at + p.bcastLat

	if p.reverted {
		// Deadlock-safety cannot be guaranteed: fall back to the type-1
		// sequence (drain first), counting the drain in the write-buffer
		// component and the broadcast in the Ra/Wa component.
		p.rmwStart = start
		p.drainAll(start, contRMWDrained)
		return
	}

	kind := directory.GetM
	if p.cfg.RMWType == core.Type3 {
		// Type-3 atomicity allows reads between Ra and Wa, so read
		// permission suffices and no invalidation delay is paid here. When
		// the line is not owned locally the lock is taken at the directory.
		kind = directory.GetS
	}
	// Wa then retires into the write buffer; the RMW (and everything after
	// it) retires without waiting for the drain (contWeakLocked ->
	// contWeakPush -> contWeakRetired).
	p.access(line, kind, true, start, contWeakLocked, 0)
}
