// Package writebuffer models the per-core store (write) buffer of a TSO
// processor: a bounded FIFO of retired-but-not-yet-performed writes. Under
// TSO the buffer drains in order; the entry at the head owns the in-flight
// coherence transaction. The buffer itself is a passive data structure --
// drain scheduling, forced drains and the interaction with cache-line locks
// are orchestrated by the processor model in internal/sim.
package writebuffer

import "fmt"

// Entry is one pending write.
type Entry struct {
	// Line is the cache-line address of the write.
	Line uint64
	// IsRMWWrite marks the write half (Wa) of a weak RMW; completing it
	// must unlock the RMW's cache line.
	IsRMWWrite bool
	// EnqueuedAt is the cycle the write retired into the buffer.
	EnqueuedAt uint64
	// InFlight is set while the entry's ownership request is outstanding.
	InFlight bool
	// Ready is set once the entry's ownership response has arrived; under
	// TSO writes still complete (leave the buffer) strictly in FIFO order,
	// so a ready entry behind a non-ready head keeps waiting. ReadyAt
	// records when ownership arrived.
	Ready   bool
	ReadyAt uint64
	// ID identifies the entry while it is pending. IDs increase in push
	// order, so they name an entry across pushes and removals that move
	// it within the buffer's storage.
	ID uint64
}

// Buffer is a bounded FIFO write buffer: a fixed ring of Entry values, so
// pushing and removing writes allocates nothing. Pointers returned by
// Head, At and Find point into the ring and stay valid only until the
// next Push or Remove.
type Buffer struct {
	ring   []Entry
	head   int // ring index of the oldest entry
	n      int
	nextID uint64
}

// New returns an empty buffer with the given capacity. It panics on a
// non-positive capacity (a configuration error).
func New(capacity int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("writebuffer: non-positive capacity %d", capacity))
	}
	return &Buffer{ring: make([]Entry, capacity)}
}

// Capacity returns the buffer's capacity in entries.
func (b *Buffer) Capacity() int { return len(b.ring) }

// Len returns the number of pending writes.
func (b *Buffer) Len() int { return b.n }

// Empty reports whether no writes are pending.
func (b *Buffer) Empty() bool { return b.n == 0 }

// Full reports whether the buffer cannot accept another write.
func (b *Buffer) Full() bool { return b.n >= len(b.ring) }

// slot returns the ring index of the i-th oldest entry.
func (b *Buffer) slot(i int) int {
	s := b.head + i
	if s >= len(b.ring) {
		s -= len(b.ring)
	}
	return s
}

// Push appends a write to the tail and returns its ID, or an error if the
// buffer is full (the caller must stall and retry once an entry drains).
func (b *Buffer) Push(line uint64, isRMWWrite bool, at uint64) (uint64, error) {
	if b.Full() {
		return 0, fmt.Errorf("writebuffer: full (capacity %d)", len(b.ring))
	}
	id := b.nextID
	b.nextID++
	b.ring[b.slot(b.n)] = Entry{Line: line, IsRMWWrite: isRMWWrite, EnqueuedAt: at, ID: id}
	b.n++
	return id, nil
}

// Head returns the oldest pending write, or nil when empty.
func (b *Buffer) Head() *Entry {
	if b.n == 0 {
		return nil
	}
	return &b.ring[b.head]
}

// At returns the i-th oldest pending write (0 <= i < Len), for in-order
// scans such as the drain issue loop and the bloom-filter conflict check.
func (b *Buffer) At(i int) *Entry {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("writebuffer: index %d out of range [0,%d)", i, b.n))
	}
	return &b.ring[b.slot(i)]
}

// index returns the FIFO position of the entry with the given ID, or -1.
func (b *Buffer) index(id uint64) int {
	for i := 0; i < b.n; i++ {
		if b.ring[b.slot(i)].ID == id {
			return i
		}
	}
	return -1
}

// Find returns the pending write with the given ID, or nil if it has left
// the buffer.
func (b *Buffer) Find(id uint64) *Entry {
	if i := b.index(id); i >= 0 {
		return &b.ring[b.slot(i)]
	}
	return nil
}

// Remove deletes the entry with the given ID, returning whether it was
// present. Writes normally leave at the head; removing one from the middle
// shifts the younger entries up, keeping FIFO order.
func (b *Buffer) Remove(id uint64) bool {
	i := b.index(id)
	if i < 0 {
		return false
	}
	if i == 0 {
		b.head = b.slot(1)
		b.n--
		return true
	}
	for ; i < b.n-1; i++ {
		b.ring[b.slot(i)] = b.ring[b.slot(i+1)]
	}
	b.n--
	return true
}

// Contains reports whether a pending write to the given line exists, for
// store-to-load forwarding.
func (b *Buffer) Contains(line uint64) bool {
	for i := 0; i < b.n; i++ {
		if b.ring[b.slot(i)].Line == line {
			return true
		}
	}
	return false
}
