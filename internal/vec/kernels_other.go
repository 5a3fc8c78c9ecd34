//go:build !amd64

package vec

// No assembly off amd64: the plain-Go bodies are the kernels.

// BlockMask is documented in headblock.go.
func (h *HeadTest) BlockMask(row int, cut float64) uint32 { return h.BlockMaskPortable(row, cut) }

func dotInt16(a, b []int16) int64 { return dotInt16Go(a, b) }
