package mempool

import (
	"bytes"
	"testing"
)

func TestTakeCapacityExact(t *testing.T) {
	var a ByteArena
	for _, n := range []int{0, 1, 7, 100, 511, 512, 3000, maxChunk, maxChunk + 1} {
		b := a.Take(n)
		if len(b) != 0 || cap(b) != n {
			t.Errorf("Take(%d): len %d cap %d, want len 0 cap %d", n, len(b), cap(b), n)
		}
	}
}

func TestAppendPastCapacityLeavesNeighbourIntact(t *testing.T) {
	var a ByteArena
	first := a.Take(4)
	second := append(a.Take(4), "BBBB"...)
	first = append(first, "AAAA"...)
	grown := append(first, "overflow"...)
	if &grown[0] == &first[0] {
		t.Fatal("append past the reserved capacity did not reallocate")
	}
	if string(second) != "BBBB" {
		t.Fatalf("neighbour overwritten: %q", second)
	}
	if string(grown) != "AAAAoverflow" {
		t.Fatalf("grown slice = %q", grown)
	}
}

func TestChunkSizesDoubleToCap(t *testing.T) {
	var a ByteArena
	var sizes []int
	for i := 0; i < 12; i++ {
		a.Take(cap(a.buf) - len(a.buf) + 1) // never fits: forces one refill
		sizes = append(sizes, cap(a.buf))
	}
	want := []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 65536, 65536, 65536, 65536}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunk sizes %v, want %v", sizes, want)
		}
	}
}

// A request larger than the chunk a refill would allocate (twice the
// current one) gets an exactly-sized chunk and leaves the current chunk
// serving later small requests.
func TestOversizedRequestGetsOwnChunk(t *testing.T) {
	var a ByteArena
	a.Take(10)
	chunk := a.buf
	big := a.Take(2*firstChunk + 1)
	if cap(big) != 2*firstChunk+1 {
		t.Fatalf("oversized Take cap %d, want %d", cap(big), 2*firstChunk+1)
	}
	if &a.buf[0] != &chunk[0] || len(a.buf) != 10 {
		t.Fatal("oversized request replaced or consumed the current chunk")
	}
	if next := a.Take(10); &next[:1][0] != &chunk[:11][10] {
		t.Fatal("small request after an oversized one did not come from the current chunk")
	}
	// At full size, a request above maxChunk is still exactly sized.
	for cap(a.buf) < maxChunk {
		a.Take(cap(a.buf) - len(a.buf) + 1)
	}
	if huge := a.Take(maxChunk + 5); cap(huge) != maxChunk+5 {
		t.Fatalf("Take(maxChunk+5) cap %d", cap(huge))
	}
	if cap(a.buf) != maxChunk {
		t.Fatalf("current chunk cap %d after an oversized request, want %d", cap(a.buf), maxChunk)
	}
}

func TestZeroValue(t *testing.T) {
	var a ByteArena
	b := append(a.Take(3), 1, 2, 3)
	if !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("got %v", b)
	}
	if cap(a.buf) != firstChunk {
		t.Fatalf("first chunk cap %d, want %d", cap(a.buf), firstChunk)
	}
}

// Bytes carved from earlier chunks must survive any number of later
// Takes: a chunk is never reused while a slice from it is referenced.
func TestEarlierChunksNeverReused(t *testing.T) {
	var a ByteArena
	type held struct {
		b    []byte
		fill byte
	}
	var live []held
	for i := 0; i < 20000; i++ {
		n := 1 + i%300
		fill := byte(i)
		b := a.Take(n)
		for j := 0; j < n; j++ {
			b = append(b, fill)
		}
		if i%7 == 0 {
			live = append(live, held{b, fill})
		}
	}
	for i, h := range live {
		for _, c := range h.b {
			if c != h.fill {
				t.Fatalf("held slice %d: byte %d, want %d", i, c, h.fill)
			}
		}
	}
}
