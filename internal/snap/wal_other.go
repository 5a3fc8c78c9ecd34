//go:build !linux

package snap

import "os"

// datasync makes f's written data durable: fsync, where fdatasync(2) is
// not offered.
func datasync(f *os.File) error { return f.Sync() }
