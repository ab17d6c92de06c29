// Package mempool provides small allocation amortizers for simulation hot
// paths. The contract throughout: pooled memory is owned by one
// single-goroutine scenario, never shared across fleet workers, and never
// reused while an alias may live — arenas only amortize allocation count,
// they do not recycle bytes.
package mempool

// Chunk sizes for the bump allocator. An arena's first chunk is small, so
// an owner that sends a few frames (most clients at the dense rungs) holds
// 512 B or a few KB, not a full chunk; each refill doubles the chunk up to
// maxChunk.
// Wire images average ~100 bytes, so a full-size chunk absorbs several
// hundred allocations.
const (
	firstChunk = 512
	maxChunk   = 1 << 16
)

// ByteArena hands out byte slices carved from chunks, turning N small
// allocations into a few chunk allocations. Slices are never reclaimed or
// reused: a chunk is garbage-collected only after every slice carved from
// it dies, so aliasing a returned slice indefinitely is safe (frame bodies
// decoded by receivers alias the wire image, for example).
// The zero value is ready to use. Not safe for concurrent use.
type ByteArena struct {
	buf []byte
}

// Take returns an empty slice with capacity exactly n. Appending up to n
// bytes fills the reserved region; appending beyond n reallocates
// (full-slice-expression cap), so a misbehaving caller can never stomp a
// neighbouring allocation. When the current chunk cannot fit n, the next
// chunk is twice the current one (firstChunk for the zero value, at most
// maxChunk); a request larger than that chunk gets an exactly-sized chunk
// of its own and leaves the current chunk in place.
func (a *ByteArena) Take(n int) []byte {
	if n > cap(a.buf)-len(a.buf) {
		size := max(min(2*cap(a.buf), maxChunk), firstChunk)
		if n > size {
			return make([]byte, 0, n)
		}
		a.buf = make([]byte, 0, size)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off : off+n]
}
