package vec

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloors returns n zeroed floors that end where an unreadable page
// begins, so that a kernel reading past the last of them faults.
func guardedFloors(tb testing.TB, n int) []int8 {
	page := syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			tb.Error(err)
		}
	})
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		tb.Fatal(err)
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&mem[size-page-n])), n)
}
