package snap

import (
	"os"
	"syscall"
)

// datasync makes f's written data durable with fdatasync(2): the WAL
// writes over preallocated zeros, so no size change needs the inode
// flushed as fsync would.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
