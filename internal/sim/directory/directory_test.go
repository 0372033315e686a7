package directory

import (
	"testing"

	"repro/internal/sim/cache"
	"repro/internal/sim/mesh"
)

func paperLatencies() Latencies {
	return Latencies{L1: 2, L2: 6, Mem: 300, LockRetry: 2}
}

func newTestDirectory(cores int) *Directory {
	m := mesh.New(cores, 1, 4)
	caches := make([]*cache.Cache, cores)
	for i := range caches {
		caches[i] = cache.New(cache.Config{SizeBytes: 32 * 1024, Assoc: 4, LineBytes: 64})
	}
	return New(m, caches, paperLatencies())
}

// access runs a request that must complete synchronously and returns its
// completion time.
func access(t *testing.T, d *Directory, core int, line uint64, kind ReqKind, start uint64) uint64 {
	t.Helper()
	done, ok := d.Access(core, line, kind, start, 0)
	if !ok {
		t.Fatalf("request %v core=%d line=%#x did not complete synchronously", kind, core, line)
	}
	return done
}

// resumed records the completions the directory reports through its
// resume hook, keyed by tag.
type resumed map[uint64]uint64

func recordResumes(d *Directory) resumed {
	r := resumed{}
	d.OnResume(func(core int, tag, at uint64) { r[tag] = at })
	return r
}

func TestNewPanicsOnMismatchedCaches(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched cache count should panic")
		}
	}()
	New(mesh.New(4, 1, 4), make([]*cache.Cache, 2), paperLatencies())
}

func TestColdMissGoesToMemory(t *testing.T) {
	d := newTestDirectory(4)
	done := access(t, d, 0, 0x40, GetS, 0)
	if done < paperLatencies().Mem {
		t.Errorf("cold miss completed in %d cycles, must include the %d-cycle memory latency", done, paperLatencies().Mem)
	}
	if d.Stats().MemAccesses != 1 {
		t.Errorf("MemAccesses = %d, want 1", d.Stats().MemAccesses)
	}
	// The line is now cached locally: a second read is an L1 hit.
	done2 := access(t, d, 0, 0x40, GetS, done)
	if done2-done != paperLatencies().L1 {
		t.Errorf("second read latency = %d, want L1 hit latency %d", done2-done, paperLatencies().L1)
	}
}

func TestL2HitCheaperThanMemoryAndDearerThanL1(t *testing.T) {
	d := newTestDirectory(4)
	// Core 0 warms the line (memory), then drops sharers... keep core 0 as
	// sharer; core 1 then reads: should be an L2/ sharer supply, no memory.
	access(t, d, 0, 0x80, GetS, 0)
	start := uint64(1000)
	done := access(t, d, 1, 0x80, GetS, start)
	lat := done - start
	if lat >= paperLatencies().Mem {
		t.Errorf("sharer read latency %d should not include memory", lat)
	}
	if lat <= paperLatencies().L1 {
		t.Errorf("remote read latency %d should exceed an L1 hit", lat)
	}
	if d.Stats().L2Hits == 0 {
		t.Error("expected an L2 hit")
	}
}

func TestGetMInvalidatesSharers(t *testing.T) {
	d := newTestDirectory(4)
	access(t, d, 0, 0x100, GetS, 0)
	access(t, d, 1, 0x100, GetS, 0)
	access(t, d, 2, 0x100, GetS, 0)
	if len(d.Sharers(0x100)) != 3 {
		t.Fatalf("sharers = %v, want 3 cores", d.Sharers(0x100))
	}
	if got := d.Sharers(0x100); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("sharers = %v, want [0 1 2] in ascending core order", got)
	}
	access(t, d, 3, 0x100, GetM, 2000)
	if d.Owner(0x100) != 3 {
		t.Errorf("owner = %d, want 3", d.Owner(0x100))
	}
	if got := d.Sharers(0x100); len(got) != 1 || got[0] != 3 {
		t.Errorf("sharers after GetM = %v, want only the new owner", got)
	}
	for c := 0; c < 3; c++ {
		if d.Cache(c).Peek(0x100) != cache.Invalid {
			t.Errorf("core %d still holds the line after invalidation", c)
		}
	}
	if d.Stats().Invalidations == 0 {
		t.Error("invalidations not counted")
	}
}

func TestGetMFromRemoteOwnerForwards(t *testing.T) {
	d := newTestDirectory(4)
	access(t, d, 0, 0x140, GetM, 0)
	if d.Owner(0x140) != 0 {
		t.Fatal("owner not set")
	}
	start := uint64(5000)
	done := access(t, d, 1, 0x140, GetM, start)
	if d.Owner(0x140) != 1 {
		t.Errorf("ownership did not transfer")
	}
	if d.Cache(0).Peek(0x140) != cache.Invalid {
		t.Error("previous owner not invalidated")
	}
	if d.Stats().OwnerForwards == 0 {
		t.Error("owner forward not counted")
	}
	// Dirty transfer must not involve memory.
	if done-start >= paperLatencies().Mem {
		t.Errorf("owner-to-owner transfer latency %d should not include memory", done-start)
	}
}

func TestOwnedWriteHitIsL1Latency(t *testing.T) {
	d := newTestDirectory(4)
	access(t, d, 2, 0x180, GetM, 0)
	start := uint64(1000)
	done := access(t, d, 2, 0x180, GetM, start)
	if done-start != paperLatencies().L1 {
		t.Errorf("write hit latency = %d, want %d", done-start, paperLatencies().L1)
	}
}

func TestGetSFromRemoteOwnerLeavesOwnerInOwned(t *testing.T) {
	d := newTestDirectory(4)
	access(t, d, 0, 0x1c0, GetM, 0)
	access(t, d, 1, 0x1c0, GetS, 1000)
	if d.Cache(0).Peek(0x1c0) != cache.Owned {
		t.Errorf("previous owner state = %v, want Owned", d.Cache(0).Peek(0x1c0))
	}
	if d.Cache(1).Peek(0x1c0) != cache.Shared {
		t.Errorf("reader state = %v, want Shared", d.Cache(1).Peek(0x1c0))
	}
	if d.Stats().OwnerForwards == 0 {
		t.Error("owner forward not counted")
	}
}

func TestLockDeniesOtherCoresUntilUnlock(t *testing.T) {
	d := newTestDirectory(4)
	r := recordResumes(d)
	// Core 0 acquires and locks the line.
	lockDone, ok := d.AccessAndLock(0, 0x200, GetM, 0, 0)
	if !ok {
		t.Fatal("locking an unlocked line must complete synchronously")
	}
	if locked, owner := d.IsLocked(0x200); !locked || owner != 0 {
		t.Fatalf("line not locked by core 0 (locked=%v owner=%d)", locked, owner)
	}
	// Core 1's request is denied and parks.
	if _, ok := d.Access(1, 0x200, GetM, lockDone+10, 7); ok {
		t.Fatal("request to a locked line must not complete before unlock")
	}
	if d.Stats().LockDenials != 1 {
		t.Errorf("LockDenials = %d, want 1", d.Stats().LockDenials)
	}
	// Unlock at some later time: the parked request resumes and completes
	// after the unlock.
	unlockAt := lockDone + 500
	d.Unlock(0x200, 0, unlockAt)
	core1Done, completed := r[7]
	if !completed {
		t.Fatal("parked request did not resume on unlock")
	}
	if core1Done <= unlockAt {
		t.Errorf("parked request completed at %d, must be after the unlock at %d", core1Done, unlockAt)
	}
	if locked, _ := d.IsLocked(0x200); locked {
		t.Error("line still locked after unlock")
	}
	if d.LockedLines() != 0 {
		t.Error("LockedLines should be zero")
	}
}

func TestLockOwnerCanStillAccess(t *testing.T) {
	d := newTestDirectory(2)
	d.AccessAndLock(0, 0x240, GetM, 0, 0)
	// The lock owner's own requests proceed (e.g. the RMW's write half).
	done := access(t, d, 0, 0x240, GetM, 100)
	if done != 100+paperLatencies().L1 {
		t.Errorf("owner access latency = %d, want L1 hit", done-100)
	}
}

func TestTwoRMWsOnSameLineSerialize(t *testing.T) {
	d := newTestDirectory(2)
	r := recordResumes(d)
	firstDone, ok := d.AccessAndLock(0, 0x280, GetM, 0, 1)
	if !ok {
		t.Fatal("first RMW must lock the free line")
	}
	if _, ok := d.AccessAndLock(1, 0x280, GetM, 0, 2); ok {
		t.Fatal("second RMW must wait for the first lock")
	}
	d.Unlock(0x280, 0, firstDone+50)
	secondDone, second := r[2]
	if !second {
		t.Fatal("second RMW did not resume")
	}
	if secondDone <= firstDone+50 {
		t.Errorf("second RMW completed at %d, want after the unlock at %d", secondDone, firstDone+50)
	}
	// It must also have locked the line for itself.
	if locked, owner := d.IsLocked(0x280); !locked || owner != 1 {
		t.Errorf("line should now be locked by core 1 (locked=%v owner=%d)", locked, owner)
	}
}

// TestUnlockResumesInArrivalOrder parks a notification and two lock
// requests from different cores on one lock: on unlock the notification
// fires at the unlock cycle, the first lock request takes the line, and
// the second parks again on that new lock.
func TestUnlockResumesInArrivalOrder(t *testing.T) {
	d := newTestDirectory(4)
	r := recordResumes(d)
	done, _ := d.AccessAndLock(0, 0x300, GetM, 0, 0)
	if !d.WaitForUnlock(0x300, 1, 10) {
		t.Fatal("WaitForUnlock must park behind another core's lock")
	}
	if d.WaitForUnlock(0x300, 0, 99) {
		t.Fatal("the lock owner must not wait for its own lock")
	}
	d.AccessAndLock(2, 0x300, GetM, 0, 20)
	d.AccessAndLock(3, 0x300, GetM, 0, 30)
	d.Unlock(0x300, 0, done+100)
	if r[10] != done+100 {
		t.Errorf("notification at %d, want the unlock cycle %d", r[10], done+100)
	}
	if _, ok := r[20]; !ok {
		t.Fatal("first parked lock request did not complete")
	}
	if _, ok := r[30]; ok {
		t.Fatal("second parked lock request must wait for the first one's lock")
	}
	if locked, owner := d.IsLocked(0x300); !locked || owner != 2 {
		t.Fatalf("line should be locked by core 2 (locked=%v owner=%d)", locked, owner)
	}
	if got := d.Stats().LockDenials; got != 4 {
		t.Errorf("LockDenials = %d, want 4 (three parks plus one re-park)", got)
	}
	d.Unlock(0x300, 2, r[20]+10)
	if _, ok := r[30]; !ok {
		t.Fatal("re-parked request did not complete on the second unlock")
	}
}

func TestLockReentrantAndMisuse(t *testing.T) {
	d := newTestDirectory(2)
	d.Lock(0x2c0, 0)
	d.Lock(0x2c0, 0) // same owner: no-op
	func() {
		defer func() {
			if recover() == nil {
				t.Error("locking a line locked by another core should panic")
			}
		}()
		d.Lock(0x2c0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unlocking someone else's lock should panic")
			}
		}()
		d.Unlock(0x2c0, 1, 0)
	}()
	d.Unlock(0x2c0, 0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unlocking an unlocked line should panic")
			}
		}()
		d.Unlock(0x2c0, 0, 0)
	}()
}

func TestHasLocalCopy(t *testing.T) {
	d := newTestDirectory(2)
	if d.HasLocalCopy(0, 0x300) {
		t.Error("cold line reported as local")
	}
	access(t, d, 0, 0x300, GetS, 0)
	if !d.HasLocalCopy(0, 0x300) {
		t.Error("cached line not reported as local")
	}
	if d.HasLocalCopy(1, 0x300) {
		t.Error("other core's copy misreported")
	}
}

func TestEvictionUpdatesDirectory(t *testing.T) {
	// A tiny cache forces evictions quickly.
	m := mesh.New(2, 1, 4)
	caches := []*cache.Cache{
		cache.New(cache.Config{SizeBytes: 128, Assoc: 1, LineBytes: 64}), // 2 lines
		cache.New(cache.Config{SizeBytes: 128, Assoc: 1, LineBytes: 64}),
	}
	d := New(m, caches, paperLatencies())
	// Three lines mapping to the same set (stride = sets = 2).
	access(t, d, 0, 0, GetM, 0)
	access(t, d, 0, 2, GetM, 0)
	if d.Owner(0) != -1 {
		t.Error("evicted line should have no owner in the directory")
	}
	// Re-reading the evicted (written-back) line must not go to memory
	// again.
	before := d.Stats().MemAccesses
	access(t, d, 0, 0, GetS, 1000)
	if d.Stats().MemAccesses != before {
		t.Error("written-back line should be supplied by the L2, not memory")
	}
}

func TestReqKindString(t *testing.T) {
	if GetS.String() != "GetS" || GetM.String() != "GetM" {
		t.Error("request kind names wrong")
	}
	if ReqKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

// TestSharersBeyondOneWord covers cores past the first 64-bit sharer word:
// sharers come back in ascending order and a GetM invalidates them all.
func TestSharersBeyondOneWord(t *testing.T) {
	d := newTestDirectory(130)
	readers := []int{129, 3, 64, 0, 127}
	for _, c := range readers {
		access(t, d, c, 0x340, GetS, 0)
	}
	want := []int{0, 3, 64, 127, 129}
	got := d.Sharers(0x340)
	if len(got) != len(want) {
		t.Fatalf("sharers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sharers = %v, want %v", got, want)
		}
	}
	before := d.Stats().Invalidations
	access(t, d, 65, 0x340, GetM, 1000)
	if got := d.Sharers(0x340); len(got) != 1 || got[0] != 65 {
		t.Errorf("sharers after GetM = %v, want [65]", got)
	}
	if n := d.Stats().Invalidations - before; n != uint64(len(readers)) {
		t.Errorf("GetM invalidated %d sharers, want %d", n, len(readers))
	}
	for _, c := range readers {
		if d.Cache(c).Peek(0x340) != cache.Invalid {
			t.Errorf("core %d still holds the line after invalidation", c)
		}
	}
}
