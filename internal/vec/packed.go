package vec

import "math"

// Packed small-integer dot products (DESIGN.md §3).
//
// w integers from [−o, o−1] are shifted by o into [0, 2o−1] and stored p
// to a uint64 in fields of b bits. Coordinate s sits in word s/p, in
// field s mod p of an ITEM vector and in field p−1−(s mod p) of a QUERY
// vector, so in the 128-bit product of two words the terms landing in
// field p−1 are exactly the p same-coordinate products. Summing the word
// products mod 2⁶⁴ (DotPacked) therefore leaves Σ_s (a_s+o)(b_s+o) in
// field p−1, provided no lower field carries into it and it does not
// overflow itself. Field k ≤ p−1 collects at most k+1 ≤ p cross terms
// per word, each at most (2o−1)², so both hold when
//
//	p · ⌈w/p⌉ · (2o−1)² < 2ᵇ
//
// — the carry-freedom inequality NewPackedLayout selects p and b by.
// Whatever lands above field p−1 is discarded by the mod and the mask.

// PackedLayout is one (p, b, o) choice. The zero value is not usable;
// call NewPackedLayout.
type PackedLayout struct {
	fields int    // p
	bits   uint   // b
	offset int64  // o
	shift  uint   // (p−1)·b: position of the field holding the dot
	mask   uint64 // 2ᵇ−1
}

// NewPackedLayout returns the densest of 3×21, 2×32 and 1×64 bits that
// is carry-free for w values in [−o, o−1], or false when even a whole
// word per value could overflow (or o, w are not positive). The 1×64
// layout is held to 2⁶³ so Field never leaves int64.
func NewPackedLayout(o int64, w int) (PackedLayout, bool) {
	if o <= 0 || o > math.MaxInt32 || w <= 0 {
		return PackedLayout{}, false
	}
	sq := uint64(2*o-1) * uint64(2*o-1) // < 2⁶⁴ since o < 2³¹
	for _, l := range []struct {
		fields int
		bits   uint
		limit  uint64 // the dot field must stay ≤ limit
	}{{3, 21, 1<<21 - 1}, {2, 32, 1<<32 - 1}, {1, 64, 1<<63 - 1}} {
		terms := uint64(l.fields * ((w + l.fields - 1) / l.fields))
		// terms·sq ≤ limit, written so neither side can overflow.
		if sq <= l.limit/terms {
			return PackedLayout{
				fields: l.fields,
				bits:   l.bits,
				offset: o,
				shift:  uint(l.fields-1) * l.bits,
				mask:   math.MaxUint64 >> (64 - l.bits),
			}, true
		}
	}
	return PackedLayout{}, false
}

// Offset returns o.
func (l *PackedLayout) Offset() int64 { return l.offset }

// Words returns the number of uint64 words holding w values.
func (l *PackedLayout) Words(w int) int { return (w + l.fields - 1) / l.fields }

// PackItem stores v into dst (len Words(len(v))) in item field order.
// It reports whether every value lay in [−o, o−1]; out-of-range values
// are truncated to their field so they cannot corrupt a neighbour.
func (l *PackedLayout) PackItem(dst []uint64, v []int32) bool {
	return l.pack(dst, v, false)
}

// PackQuery is PackItem in query field order.
func (l *PackedLayout) PackQuery(dst []uint64, v []int32) bool {
	return l.pack(dst, v, true)
}

func (l *PackedLayout) pack(dst []uint64, v []int32, query bool) bool {
	clear(dst)
	ok := true
	for s, x := range v {
		u := int64(x) + l.offset
		if u < 0 || u >= 2*l.offset {
			ok = false
		}
		f := s % l.fields
		if query {
			f = l.fields - 1 - f
		}
		dst[s/l.fields] |= (uint64(u) & l.mask) << (uint(f) * l.bits)
	}
	return ok
}

// UnpackItem inverts PackItem: dst[s] receives coordinate s of src.
func (l *PackedLayout) UnpackItem(dst []int32, src []uint64) {
	for s := range dst {
		u := src[s/l.fields] >> (uint(s%l.fields) * l.bits) & l.mask
		dst[s] = int32(int64(u) - l.offset)
	}
}

// Field extracts field p−1 of a DotPacked sum over two vectors packed
// by l: Σ_s (a_s+o)(b_s+o), below 2⁶³. The caller subtracts the offset
// terms.
//
//fex:inline
func (l *PackedLayout) Field(acc uint64) int64 { return int64(acc >> (l.shift & 63) & l.mask) }

// DotPacked returns Σ_x item[x]·query[x] mod 2⁶⁴ over len(query) words;
// item must be at least as long. With both sides packed by one
// PackedLayout, field p−1 of the result is the offset dot product
// (Field extracts it).
//
//fex:inline
func DotPacked(item, query []uint64) uint64 {
	item = item[:len(query)]
	var acc uint64
	for x, q := range query {
		acc += item[x] * q
	}
	return acc
}
