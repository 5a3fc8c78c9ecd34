package core

import (
	"context"
	"io"
)

// LoadSnapshot is loadSnapshot with no span, for the external tests that
// reload a checkpoint from memory: FuzzDynamicOps does at every fifth
// step, where a data directory per reload (OpenRecovered) would cost the
// fuzzer most of its speed.
func LoadSnapshot(r io.Reader, workers int) (*DynamicIndex, uint64, error) {
	return loadSnapshot(context.Background(), r, workers)
}
