package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// epoch is the origin of sample times: a sample stores durations since it
// (monotonic) instead of a time.Time, which holds a pointer.
var epoch = time.Now()

// at returns t as a duration since epoch.
func at(t time.Time) time.Duration { return t.Sub(epoch) }

// chunkSamples is how many samples one off-heap chunk holds (2 MiB).
const chunkSamples = 1 << 16

// arena hands out sample storage outside the Go heap. The benchmark keeps
// one sample per request, and it shares its process with the program under
// test: kept on the heap, the samples would grow the heap the collector
// paces itself against, and the program would collect less often the
// longer (and the faster) a run went. Samples hold no pointers, so the
// collector never needs to see them.
type arena struct {
	mu   sync.Mutex
	maps [][]byte
}

// chunk returns an empty sample slice with room for chunkSamples.
func (a *arena) chunk() ([]sample, error) {
	size := chunkSamples * int(unsafe.Sizeof(sample{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map sample chunk: %w", err)
	}
	a.mu.Lock()
	a.maps = append(a.maps, mem)
	a.mu.Unlock()
	return unsafe.Slice((*sample)(unsafe.Pointer(&mem[0])), chunkSamples)[:0], nil
}

// free unmaps every chunk; no sample handed out may be used afterwards.
func (a *arena) free() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.maps {
		syscall.Munmap(m)
	}
	a.maps = nil
}

// samples is one client's (or one window's) samples, chunk by chunk.
type samples [][]sample

// add appends s, mapping a new chunk when the last one is full.
func (ss *samples) add(a *arena, s sample) error {
	if n := len(*ss); n == 0 || len((*ss)[n-1]) == cap((*ss)[n-1]) {
		c, err := a.chunk()
		if err != nil {
			return err
		}
		*ss = append(*ss, c)
	}
	last := &(*ss)[len(*ss)-1]
	*last = append(*last, s)
	return nil
}

// count returns the number of samples.
func (ss samples) count() int {
	n := 0
	for _, c := range ss {
		n += len(c)
	}
	return n
}
