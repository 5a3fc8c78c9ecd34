package core

import "fexipro/internal/vec"

// catalogBlockRows is how many added rows one catalog block holds: 100 KiB
// at d = 50, whose allocation (≈ 9 µs, BenchmarkDynamicFirstAdd) is a
// tenth of one WAL append and falls on one add in 256.
const catalogBlockRows = 256

// catalog holds a DynamicIndex's item rows by catalog ID, append-only.
// The rows given at build or load are one block of exactly their size;
// an added row goes into a block of catalogBlockRows rows, allocated
// when the previous one fills. No block ever moves, so an add copies one
// row whatever the catalog holds, and the pair (blocks, rows) of one
// moment stays a valid view of that moment's rows.
type catalog struct {
	d     int
	rows  int       // IDs [0, rows) are stored
	nBase int       // rows given at build or load
	base  []float64 // their data, nBase×d row-major
	// blocks[j] holds IDs nBase + j·catalogBlockRows onwards. A block
	// may stand allocated past rows: an add taken back keeps its block.
	blocks [][]float64
}

// catalogOf reads m's rows in place as a catalog; adding to it would
// not touch m.
func catalogOf(m *vec.Matrix) catalog {
	return catalog{d: m.Cols, rows: m.Rows, nBase: m.Rows, base: m.Data[:m.Rows*m.Cols]}
}

// row returns the stored row of catalog ID id, aliasing the catalog.
// Builds and delta scans call it once per row.
//
//fex:inline
func (c *catalog) row(id int) []float64 {
	if id < c.nBase {
		return c.base[id*c.d : (id+1)*c.d]
	}
	id -= c.nBase
	off := id % catalogBlockRows * c.d
	return c.blocks[id/catalogBlockRows][off : off+c.d]
}

// add stores item as catalog ID rows and returns that ID.
func (c *catalog) add(item []float64) int {
	id := c.rows
	if j := id - c.nBase; j/catalogBlockRows == len(c.blocks) {
		c.blocks = append(c.blocks, make([]float64, catalogBlockRows*c.d))
	}
	c.rows++
	copy(c.row(id), item)
	return id
}

// dropLast takes back the last add.
func (c *catalog) dropLast() { c.rows-- }

// parts returns the stored rows' data in ID order: the base block, then
// each added block up to its last stored row.
func (c *catalog) parts() [][]float64 {
	out := append(make([][]float64, 0, 1+len(c.blocks)), c.base)
	for left := (c.rows - c.nBase) * c.d; left > 0; left -= catalogBlockRows * c.d {
		b := c.blocks[len(out)-1]
		out = append(out, b[:min(left, len(b))])
	}
	return out
}
