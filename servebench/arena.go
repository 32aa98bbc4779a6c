package main

import (
	"fmt"
	"syscall"
)

// arena is memory mapped outside the Go heap. The benchmark keeps its
// request bodies and the replies it has read there, so that neither
// the live-heap figure nor the collector's pacing counts the harness:
// a server holds no such buffers. Pages are committed as they are
// written.
type arena struct {
	mem []byte
	off int
}

func mapArena(size int) (*arena, error) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes: %w", size, err)
	}
	return &arena{mem: mem}, nil
}

// alloc returns n bytes of the arena, or nil when it is full.
func (a *arena) alloc(n int) []byte {
	if n > len(a.mem)-a.off {
		return nil
	}
	b := a.mem[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// free unmaps the arena; every slice alloc returned is invalid after.
func (a *arena) free() error {
	mem := a.mem
	a.mem, a.off = nil, 0
	return syscall.Munmap(mem)
}
