package server

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// This file reads the numbers of a request body in the scanner's own
// pass (DESIGN.md §10.5): one walk over the JSON number grammar gathers
// the decimal mantissa and exponent, and an exact conversion turns them
// into the float64 strconv.ParseFloat would return — Clinger's fast path,
// else Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
// 2021; Go's strconv runs the same algorithm). strconv itself runs only
// where neither can decide: a non-zero digit past the 19th significant
// one, an exponent outside the table, a halfway case, a subnormal or an
// overflow.

const (
	maxDigits = 19   // significant digits a uint64 mantissa always holds
	minExp10  = -348 // the range of powersOfTen
	maxExp10  = 347
)

// number is a JSON number as readNumber found it: ±man·10^exp10, exactly
// unless many.
type number struct {
	man     uint64
	exp10   int
	neg     bool
	many    bool // a non-zero digit past the 19th significant one was dropped
	integer bool // neither fraction nor exponent
}

// readNumber checks b[i:] against the JSON number grammar
//
//	-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
//
// and returns what it read with the end of the longest match, or -1 when
// there is none. strconv alone will not do: it also takes hex floats,
// "Inf", "NaN", underscores and a leading "+", "." or "0". The caller
// requires a delimiter after the match, which is what turns "01" or
// "1.5.2" away.
func readNumber(b []byte, i int) (number, int) {
	var (
		man       uint64
		exp10, nd int // nd: significant digits in man
		neg, many bool
	)
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if nd == maxDigits {
				exp10++
				many = many || c != 0
				continue
			}
			man = man*10 + uint64(c)
			nd++
		}
	default:
		return number{}, -1
	}
	integer := true
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		start := i
		if nd == 0 {
			for ; i < len(b) && b[i] == '0'; i++ {
				exp10--
			}
		}
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if nd == maxDigits {
				many = many || c != 0
				continue
			}
			man = man*10 + uint64(c)
			nd++
			exp10--
		}
		if i == start {
			return number{}, -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if e < 10000 { // past the table either way; stops overflow
				e = e*10 + int(c)
			}
		}
		if i == start {
			return number{}, -1
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	return number{man: man, exp10: exp10, neg: neg, many: many, integer: integer}, i
}

// parseNumber returns the JSON number at b[i:], bit for bit what
// strconv.ParseFloat returns for it, with the index after it; or -1 when
// there is no such number or strconv refuses it (out of range). Only the
// strconv fallback allocates.
func parseNumber(b []byte, i int) (float64, int) {
	n, end := readNumber(b, i)
	if end < 0 {
		return 0, -1
	}
	if f, ok := n.float(); ok {
		return f, end
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return 0, -1
	}
	return f, end
}

// parseInt returns the integer literal -?(0|[1-9][0-9]*) at b[i:] with
// the index after it, or -1 when there is none or it lies outside int.
func parseInt(b []byte, i int) (int, int) {
	n, end := readNumber(b, i)
	limit := uint64(math.MaxInt)
	if n.neg {
		limit++ // -limit is math.MinInt
	}
	if end < 0 || !n.integer || n.many || n.exp10 != 0 || n.man > limit {
		return 0, -1
	}
	k := int(n.man)
	if n.neg {
		k = -k
	}
	return k, end
}

var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float returns n correctly rounded, and false when only strconv can.
func (n number) float() (float64, bool) {
	if n.many {
		return 0, false
	}
	if n.man == 0 {
		if n.neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger: the mantissa and the power of ten are both exact float64s,
	// so one IEEE operation rounds their product or quotient correctly.
	if n.man < 1<<53 && -22 <= n.exp10 && n.exp10 <= 22 {
		f := float64(n.man)
		if n.exp10 < 0 {
			f /= pow10[-n.exp10]
		} else {
			f *= pow10[n.exp10]
		}
		if n.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(n.man, n.exp10, n.neg)
}

// eiselLemire converts man·10^exp10 (man > 0) to the nearest float64 by
// one or two 64×64-bit products with a 128-bit truncation of 10^exp10,
// and reports false when that truncation leaves the rounding undecided
// or the result is subnormal or infinite. It follows strconv's
// eiselLemire64 (src/strconv/eisel_lemire.go, BSD licence) step for step.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}
	pow := &powersOfTen[exp10-minExp10]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	// 217706/2¹⁶ ≈ log₂10, so this is the binary exponent up to one.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, pow[1])
	// The low bits of hi are all ones and lo may carry into them: widen
	// the product with the power's low word before deciding.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	m := hi >> (msb + 9) // 54 bits: the mantissa and one rounding bit
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // exactly halfway on the truncated power: undecided
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, zero or infinite
	}
	u := exp2<<52 | m&(1<<52-1)
	if neg {
		u |= 1 << 63
	}
	return math.Float64frombits(u), true
}

// powersOfTen[e-minExp10] is the top 128 bits of 10^e, rounded down, as
// {low word, high word}; the high word's top bit is set.
var powersOfTen = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	p, one, ten := big.NewInt(1), big.NewInt(1), big.NewInt(10) // p = 10^k
	var x big.Int
	for k := 0; k <= -minExp10; k++ {
		if k <= maxExp10 {
			t[k-minExp10] = top128(x.Set(p))
		}
		if k > 0 { // 10^-k as ⌊2^(len+127) / 10^k⌋, which has 128 bits
			x.Lsh(one, uint(p.BitLen()+127))
			t[-k-minExp10] = top128(x.Quo(&x, p))
		}
		p.Mul(p, ten)
	}
	return t
}()

// top128 returns the top 128 bits of x > 0, rounded down, as {low, high}.
func top128(x *big.Int) [2]uint64 {
	if n := x.BitLen(); n > 128 {
		x.Rsh(x, uint(n-128))
	} else {
		x.Lsh(x, uint(128-n))
	}
	var lo, hi big.Int
	lo.And(x, new(big.Int).SetUint64(math.MaxUint64))
	hi.Rsh(x, 64)
	return [2]uint64{lo.Uint64(), hi.Uint64()}
}
