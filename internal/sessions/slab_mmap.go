//go:build unix && !race

package sessions

import (
	"fmt"
	"syscall"
	"unsafe"

	"tsppr/internal/seq"
)

// allocChunk maps n zeroed items of anonymous private memory.
func allocChunk(n int) []seq.Item {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("sessions: map %d B of windows: %v", 4*n, err))
	}
	return unsafe.Slice((*seq.Item)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// freeChunk unmaps a chunk allocChunk returned.
func freeChunk(c []seq.Item) {
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c))), 4*len(c))); err != nil {
		panic(fmt.Sprintf("sessions: unmap windows: %v", err))
	}
}

// slabInHeap reports whether allocChunk takes its chunks from the Go heap.
const slabInHeap = false
