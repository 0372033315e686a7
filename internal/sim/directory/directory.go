// Package directory implements the distributed MOESI directory protocol of
// the simulated chip multiprocessor, including the cache-line locking used
// by RMW implementations (§3) and the directory locking optimization of the
// type-3 RMW (§3.3).
//
// The directory is the timing model's source of truth for where each cache
// line lives (owning core, sharer set, presence in the shared L2) and for
// which lines are currently locked by an in-flight RMW. Access returns
// when a request completes; a request that targets a locked line is
// instead parked on the lock, as a record carrying the caller's opaque
// tag, and resumed when the lock is released -- exactly the "deny
// coherence requests until the write of the RMW completes" behaviour of
// the paper. Resumed requests report their completion through the
// directory's resume hook (OnResume).
package directory

import (
	"fmt"
	"math/bits"

	"repro/internal/sim/cache"
	"repro/internal/sim/mesh"
)

// ReqKind is the kind of coherence request.
type ReqKind int

const (
	// GetS requests read permission (a shared copy).
	GetS ReqKind = iota
	// GetM requests write permission (an exclusive copy, invalidating other
	// sharers).
	GetM
)

// String renders the request kind.
func (k ReqKind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetM:
		return "GetM"
	default:
		return fmt.Sprintf("ReqKind(%d)", int(k))
	}
}

// Latencies holds the fixed access latencies of the memory hierarchy
// (Table 2 of the paper).
type Latencies struct {
	// L1 is the hit latency of the private L1 cache.
	L1 uint64
	// L2 is the hit latency of a shared L2 bank.
	L2 uint64
	// Mem is the main-memory access latency.
	Mem uint64
	// LockRetry is the extra delay charged when a request was denied
	// because its line was locked and had to be retried after the unlock.
	LockRetry uint64
}

// Stats counts directory activity.
type Stats struct {
	GetS          uint64
	GetM          uint64
	L1Hits        uint64
	L2Hits        uint64
	MemAccesses   uint64
	OwnerForwards uint64
	Invalidations uint64
	LockDenials   uint64
	Locks         uint64
	Unlocks       uint64
}

// lineMeta is the directory's view of one cache line. Its sharer set is
// the line's words of Directory.sharers, one bit per core.
type lineMeta struct {
	owner int // core holding the line in M/E/O, or -1
	inL2  bool
}

// parked is a request waiting for a line's lock to be released.
type parked struct {
	core  int
	kind  ReqKind
	start uint64
	// lock marks an AccessAndLock request; notify marks a WaitForUnlock
	// registration, which is not retried but only told of the unlock.
	lock, notify bool
	tag          uint64
}

// lineLock marks a line locked by an in-flight RMW. Locks are stored by
// value; a waiter slice is only allocated for the rare denied request.
type lineLock struct {
	owner   int
	waiters []parked
}

// Directory is the distributed directory plus the per-core L1 caches it
// keeps coherent.
type Directory struct {
	mesh   *mesh.Topology
	caches []*cache.Cache
	lat    Latencies

	// lines maps a line address to its index in metas; the line's sharer
	// bitset is sharers[index*words : (index+1)*words].
	lines   map[uint64]int
	metas   []lineMeta
	sharers []uint64
	words   int

	locks map[uint64]lineLock
	// targets is getM's scratch list of sharers to invalidate.
	targets []int
	resume  func(core int, tag, at uint64)

	stats Stats
}

// New builds a directory for the given mesh and per-core L1 caches. The
// number of caches must equal the number of mesh nodes.
func New(m *mesh.Topology, caches []*cache.Cache, lat Latencies) *Directory {
	if len(caches) != m.Nodes() {
		panic(fmt.Sprintf("directory: %d caches for %d nodes", len(caches), m.Nodes()))
	}
	return &Directory{
		mesh:   m,
		caches: caches,
		lat:    lat,
		lines:  map[uint64]int{},
		words:  (len(caches) + 63) / 64,
		locks:  map[uint64]lineLock{},
	}
}

// OnResume sets the hook that reports the completion of parked requests:
// fn(core, tag, at) runs, synchronously inside Unlock, with the tag the
// request was issued with and its completion cycle (for a WaitForUnlock
// registration, the unlock cycle).
func (d *Directory) OnResume(fn func(core int, tag, at uint64)) { d.resume = fn }

// Stats returns a copy of the activity counters.
func (d *Directory) Stats() Stats { return d.stats }

// Cache returns core c's L1 cache.
func (d *Directory) Cache(c int) *cache.Cache { return d.caches[c] }

// meta returns the index of the line's metadata, creating it on first
// use.
func (d *Directory) meta(line uint64) int {
	i, ok := d.lines[line]
	if !ok {
		i = len(d.metas)
		d.metas = append(d.metas, lineMeta{owner: -1})
		for w := 0; w < d.words; w++ {
			d.sharers = append(d.sharers, 0)
		}
		d.lines[line] = i
	}
	return i
}

// sharerSet returns line i's sharer bitset.
func (d *Directory) sharerSet(i int) []uint64 {
	return d.sharers[i*d.words : (i+1)*d.words]
}

func setBit(set []uint64, c int)   { set[c/64] |= 1 << (c % 64) }
func clearBit(set []uint64, c int) { set[c/64] &^= 1 << (c % 64) }

func anyBit(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return true
		}
	}
	return false
}

// IsLocked reports whether the line is currently locked, and by which core.
func (d *Directory) IsLocked(line uint64) (bool, int) {
	if l, ok := d.locks[line]; ok {
		return true, l.owner
	}
	return false, -1
}

// LockedLines returns the number of currently locked lines.
func (d *Directory) LockedLines() int { return len(d.locks) }

// Access issues a coherence request from core for the given line at time
// start. It returns the completion cycle and true, or false when the line
// is locked by another core: the request is then parked on the lock
// (counted as a lock denial) and, once the lock is released, retried with
// the retry penalty; its completion is reported through the resume hook
// with tag. Requests by the lock owner itself proceed normally.
func (d *Directory) Access(core int, line uint64, kind ReqKind, start, tag uint64) (uint64, bool) {
	return d.access(line, parked{core: core, kind: kind, start: start, tag: tag})
}

// AccessAndLock performs Access and atomically locks the line on behalf of
// the requesting core at the completion time, so that the RMW's read half
// can retire with the line locked. If another core holds the line's lock
// the request is parked like any other denied request and locks the line
// when it completes after the unlock.
func (d *Directory) AccessAndLock(core int, line uint64, kind ReqKind, start, tag uint64) (uint64, bool) {
	return d.access(line, parked{core: core, kind: kind, start: start, lock: true, tag: tag})
}

// access completes req now, or parks it on the line's lock.
func (d *Directory) access(line uint64, req parked) (uint64, bool) {
	// Few lines are locked at any time, so most requests skip the lookup.
	if len(d.locks) != 0 {
		if l, ok := d.locks[line]; ok && l.owner != req.core {
			d.stats.LockDenials++
			l.waiters = append(l.waiters, req)
			d.locks[line] = l
			return 0, false
		}
	}
	var latency uint64
	switch req.kind {
	case GetS:
		latency = d.getS(req.core, line)
	case GetM:
		latency = d.getM(req.core, line)
	default:
		panic(fmt.Sprintf("directory: unknown request kind %d", int(req.kind)))
	}
	if req.lock {
		// Access serializes on the lock, so here the line is either
		// unlocked or locked by the requester (re-entrant RMW on the same
		// line cannot happen on an in-order core).
		d.Lock(line, req.core)
	}
	return req.start + latency, true
}

// Lock marks the line locked by the core. Locking an already-locked line by
// the same core is a no-op; locking a line locked by another core is a
// protocol bug and panics.
func (d *Directory) Lock(line uint64, core int) {
	if l, ok := d.locks[line]; ok {
		if l.owner != core {
			panic(fmt.Sprintf("directory: core %d locking line %#x already locked by core %d", core, line, l.owner))
		}
		return
	}
	d.locks[line] = lineLock{owner: core}
	d.stats.Locks++
}

// WaitForUnlock parks a notification on the line's lock (held by a core
// other than the caller) and reports whether such a lock was present.
// When it returns true, the resume hook runs with tag and the unlock cycle
// once the lock is released; when it returns false nothing was parked and
// the caller may proceed. This is the completion-time denial used by the
// write-buffer drain: a write whose ownership response arrives while the
// line is locked by another processor's RMW is held back and retried after
// the unlock.
func (d *Directory) WaitForUnlock(line uint64, core int, tag uint64) bool {
	l, ok := d.locks[line]
	if !ok || l.owner == core {
		return false
	}
	d.stats.LockDenials++
	l.waiters = append(l.waiters, parked{core: core, notify: true, tag: tag})
	d.locks[line] = l
	return true
}

// Unlock releases the line's lock at the given time and resumes the parked
// requests in arrival order: each is retried (and may park again, on a
// lock an earlier one took) or notified. Unlocking a line that is not
// locked by the core is a protocol bug and panics.
func (d *Directory) Unlock(line uint64, core int, at uint64) {
	l, ok := d.locks[line]
	if !ok {
		panic(fmt.Sprintf("directory: core %d unlocking line %#x which is not locked", core, line))
	}
	if l.owner != core {
		panic(fmt.Sprintf("directory: core %d unlocking line %#x locked by core %d", core, line, l.owner))
	}
	delete(d.locks, line)
	d.stats.Unlocks++
	for _, w := range l.waiters {
		if w.notify {
			d.resume(w.core, w.tag, at)
			continue
		}
		if retry := at + d.lat.LockRetry; retry > w.start {
			w.start = retry
		}
		if done, ok := d.access(line, w); ok {
			d.resume(w.core, w.tag, done)
		}
	}
}

// getS computes the latency of a read-permission request and updates the
// directory and cache state.
func (d *Directory) getS(core int, line uint64) uint64 {
	d.stats.GetS++
	c := d.caches[core]

	// Local hit in any valid state. A cached line already has directory
	// metadata, so the hit needs no directory lookup.
	if c.Lookup(line).CanRead() {
		d.stats.L1Hits++
		return d.lat.L1
	}

	i := d.meta(line)
	m := &d.metas[i]
	sharers := d.sharerSet(i)
	home := d.mesh.Home(line)
	reqToHome := d.mesh.Latency(core, home)
	var latency uint64
	switch {
	case m.owner >= 0 && m.owner != core:
		// Owner forwards the data: requester -> home -> owner -> requester.
		d.stats.OwnerForwards++
		latency = reqToHome + d.mesh.Latency(home, m.owner) + d.lat.L1 + d.mesh.Latency(m.owner, core)
		// The owner keeps a dirty copy in Owned state.
		d.caches[m.owner].SetState(line, cache.Owned)
	case m.inL2 || anyBit(sharers):
		d.stats.L2Hits++
		latency = reqToHome + d.lat.L2 + d.mesh.Latency(home, core)
	default:
		d.stats.MemAccesses++
		latency = reqToHome + d.lat.Mem + d.mesh.Latency(home, core)
		m.inL2 = true
	}
	setBit(sharers, core)
	d.insertLocal(core, line, cache.Shared)
	return d.lat.L1 + latency
}

// getM computes the latency of a write-permission request and updates the
// directory and cache state, invalidating other copies.
func (d *Directory) getM(core int, line uint64) uint64 {
	d.stats.GetM++
	i := d.meta(line)
	m := &d.metas[i]
	c := d.caches[core]

	// Local hit with write permission.
	if c.Lookup(line).CanWrite() && m.owner == core {
		d.stats.L1Hits++
		return d.lat.L1
	}

	sharers := d.sharerSet(i)
	home := d.mesh.Home(line)
	reqToHome := d.mesh.Latency(core, home)
	var latency uint64
	switch {
	case m.owner >= 0 && m.owner != core:
		// Fetch from the remote owner and invalidate it.
		d.stats.OwnerForwards++
		d.stats.Invalidations++
		latency = reqToHome + d.mesh.Latency(home, m.owner) + d.lat.L1 + d.mesh.Latency(m.owner, core)
		d.caches[m.owner].Invalidate(line)
		clearBit(sharers, m.owner)
	case m.inL2 || anyBit(sharers):
		d.stats.L2Hits++
		latency = reqToHome + d.lat.L2 + d.mesh.Latency(home, core)
	default:
		d.stats.MemAccesses++
		latency = reqToHome + d.lat.Mem + d.mesh.Latency(home, core)
		m.inL2 = true
	}

	// Invalidate all other sharers; the invalidations and acknowledgements
	// overlap, so only the farthest sharer adds latency. The sharer set
	// then becomes the new owner alone.
	d.targets = d.targets[:0]
	for w, word := range sharers {
		for word != 0 {
			s := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if s != core {
				d.targets = append(d.targets, s)
				d.caches[s].Invalidate(line)
				d.stats.Invalidations++
			}
		}
		sharers[w] = 0
	}
	if len(d.targets) > 0 {
		latency += d.mesh.MultiCastLatency(home, d.targets)
	}

	m.owner = core
	setBit(sharers, core)
	d.insertLocal(core, line, cache.Modified)
	return d.lat.L1 + latency
}

// insertLocal places the line into the requester's L1 and propagates any
// capacity eviction back into the directory state. A dirty evicted line
// is written back to the L2; a clean one may still be there, so its inL2
// is kept as is.
func (d *Directory) insertLocal(core int, line uint64, st cache.State) {
	evicted, did := d.caches[core].Insert(line, st)
	if !did {
		return
	}
	i := d.meta(evicted)
	clearBit(d.sharerSet(i), core)
	if em := &d.metas[i]; em.owner == core {
		em.owner = -1
		em.inL2 = true
	}
}

// Owner returns the core owning the line (holding it in M/E/O), or -1.
func (d *Directory) Owner(line uint64) int {
	if i, ok := d.lines[line]; ok {
		return d.metas[i].owner
	}
	return -1
}

// Sharers returns the cores holding a copy of the line, in ascending core
// order.
func (d *Directory) Sharers(line uint64) []int {
	i, ok := d.lines[line]
	if !ok {
		return nil
	}
	var out []int
	for w, word := range d.sharerSet(i) {
		for word != 0 {
			out = append(out, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// HasLocalCopy reports whether the core holds a readable copy of the line,
// without touching LRU state. Used by the type-3 RMW implementation to
// decide between local locking and directory locking.
func (d *Directory) HasLocalCopy(core int, line uint64) bool {
	return d.caches[core].Peek(line).CanRead()
}
