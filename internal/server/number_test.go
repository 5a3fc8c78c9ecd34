package server

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// grammarEnd is the number grammar on its own, with no conversion, as
// the reference for where readNumber stops: the end of the longest match
// of
//
//	-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
//
// at b[i:] without backtracking over a '.' or an 'e', or -1, and whether
// the match has neither fraction nor exponent.
func grammarEnd(b []byte, i int) (end int, integer bool) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return -1, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if j := digits(i + 1); j == i+1 {
			return -1, false
		} else {
			i = j
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return -1, false
		}
		i = j
	}
	return i, integer
}

// edgeLiterals are the literals where a conversion goes wrong first:
// signed zeros, the first integer float64 cannot hold, the normal and
// subnormal boundaries, the largest finite value and just past it,
// exponents off either end of the table, and mantissas past 19 digits.
var edgeLiterals = []string{
	"0", "-0", "-0.0", "0e999", "-0.000e-999", "1", "-1", "0.1", "5e-1",
	"9007199254740992", "9007199254740993", "9007199254740995", "-9007199254740993",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "2.225073858507201e-308",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-324",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"1e308", "1e309", "-1e309", "1e400", "-1e400", "1e-400", "-1e-400", "1e999", "1e-99999999999999",
	"1e22", "1e23", "9007199254740991e22", "9007199254740993e-22", "1e-22", "123456789e-30",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"18446744073709551615", "18446744073709551616", "10000000000000000000", "1000000000000000000000000",
	"1234567890123456789", "12345678901234567890", "123456789012345678901234567890",
	"1.23456789012345678901234567890", "0.000000000000000000000000000001234567890123456789012",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"0.49671415301123267", "-0.13826430117118466", "1.5230298564080254",
	"1E+3", "1e-05", "1.5E-0007", "-2.5e-1", "3.0e0", "1e000000000000000000000000000022",
	"1e99999999999999999999999999999999", "-1.5e-99999999999999999999999999999999",
}

// checkLiteral runs parseNumber and parseInt over s at offset 1 of a
// delimited buffer and holds them to strconv: the same end and bits, or
// a decline exactly where strconv errors.
func checkLiteral(t *testing.T, s string) {
	t.Helper()
	b := []byte("[" + s + "]")
	f, end := parseNumber(b, 1)
	want, err := strconv.ParseFloat(s, 64)
	switch {
	case err != nil && end >= 0:
		t.Fatalf("parseNumber(%q) = %v, strconv says %v", s, f, err)
	case err == nil && end != len(b)-1:
		t.Fatalf("parseNumber(%q) ended at %d, want %d", s, end, len(b)-1)
	case err == nil && math.Float64bits(f) != math.Float64bits(want):
		t.Fatalf("parseNumber(%q) = %v (%#x), strconv says %v (%#x)", s, f, math.Float64bits(f), want, math.Float64bits(want))
	}
	k, end := parseInt(b, 1)
	wantK, err := strconv.ParseInt(s, 10, 0)
	if (err != nil) != (end < 0) || err == nil && k != int(wantK) {
		t.Fatalf("parseInt(%q) = %d, %d; strconv says %d, %v", s, k, end, wantK, err)
	}
}

// FuzzParseNumber holds the scanner's number reader to two references at
// any offset of any bytes: grammarEnd for where a literal ends or that
// there is none, and strconv for its value and for which literals are
// out of range. parseInt is held to strconv.ParseInt the same way.
func FuzzParseNumber(f *testing.F) {
	for _, s := range edgeLiterals {
		f.Add([]byte(s+","), uint16(0))
	}
	f.Add([]byte(`{"k":10,"vector":[0.49671415301123267,-1e-7]}`), uint16(19))
	f.Add([]byte("-01.5e+3x"), uint16(1))
	f.Add([]byte("1.e5"), uint16(0))
	f.Add([]byte("0x1p-2"), uint16(0))
	f.Fuzz(func(t *testing.T, b []byte, off uint16) {
		i := int(off) % (len(b) + 1)
		refEnd, integer := grammarEnd(b, i)
		v, end := parseNumber(b, i)
		k, kEnd := parseInt(b, i)
		if refEnd < 0 {
			if end != -1 || kEnd != -1 {
				t.Fatalf("%q at %d: no number there, parseNumber ended at %d and parseInt at %d", b, i, end, kEnd)
			}
			return
		}
		lit := string(b[i:refEnd])
		want, err := strconv.ParseFloat(lit, 64)
		switch {
		case err != nil:
			if end != -1 {
				t.Fatalf("%q: strconv says %v, parseNumber returned %v", lit, err, v)
			}
		case end != refEnd:
			t.Fatalf("%q at %d: parseNumber ended at %d, the grammar at %d", b, i, end, refEnd)
		case math.Float64bits(v) != math.Float64bits(want):
			t.Fatalf("%q: parseNumber = %#x, strconv %#x", lit, math.Float64bits(v), math.Float64bits(want))
		}
		wantK, err := strconv.ParseInt(lit, 10, 0)
		switch {
		case !integer || err != nil:
			if kEnd != -1 {
				t.Fatalf("%q: parseInt returned %d, want a decline", lit, k)
			}
		case kEnd != refEnd || k != int(wantK):
			t.Fatalf("%q: parseInt = %d ending at %d, want %d ending at %d", lit, k, kEnd, wantK, refEnd)
		}
	})
}

// TestParseNumberEveryExponent puts random 1–19-digit mantissas at every
// decimal exponent the table covers, in integer, fraction and exponent
// spellings, beside the edge literals, exact float64 midpoints, mantissas
// past 19 digits and the forms strconv and encoding/json write. Each must
// match strconv bit for bit, and in the normal range the conversion must
// decide without strconv. The generated table is checked first, entry by
// entry, against its definition.
func TestParseNumberEveryExponent(t *testing.T) {
	// The table by its definition, checked by multiplying back: entry x
	// has 128 bits and x ≤ 10^e·2^s < x+1 for the s that gives it them.
	one := big.NewInt(1)
	for e := minExp10; e <= maxExp10; e++ {
		w := powersOfTen[e-minExp10]
		x := new(big.Int).Lsh(new(big.Int).SetUint64(w[1]), 64)
		x.Or(x, new(big.Int).SetUint64(w[0]))
		x1 := new(big.Int).Add(x, one)
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		n := uint(p.BitLen())
		var lo, mid, hi *big.Int
		if e >= 0 { // x·2^n ≤ 10^e·2^128 < (x+1)·2^n
			lo, mid, hi = new(big.Int).Lsh(x, n), new(big.Int).Lsh(p, 128), new(big.Int).Lsh(x1, n)
		} else { // x·10^-e ≤ 2^(n+127) < (x+1)·10^-e
			lo, mid, hi = new(big.Int).Mul(x, p), new(big.Int).Lsh(one, n+127), new(big.Int).Mul(x1, p)
		}
		if x.BitLen() != 128 || lo.Cmp(mid) > 0 || mid.Cmp(hi) >= 0 {
			t.Fatalf("powersOfTen at 10^%d = %#x is not its top 128 bits rounded down", e, x)
		}
	}
	for _, s := range edgeLiterals {
		checkLiteral(t, s)
	}
	rng := rand.New(rand.NewSource(39))
	digits := func(n int) string {
		d := []byte(strconv.Itoa(1 + rng.Intn(9)))
		for len(d) < n {
			d = append(d, byte('0'+rng.Intn(10)))
		}
		return string(d)
	}
	for e := minExp10; e <= maxExp10; e++ {
		decided := 0
		for n := 1; n <= maxDigits; n++ {
			m := digits(n)
			sign := []string{"", "-"}[rng.Intn(2)]
			point, zeros := 1+rng.Intn(n), rng.Intn(3)
			for _, s := range []string{
				sign + m + "e" + strconv.Itoa(e),
				sign + m[:point] + "." + m[point:] + "0E" + signed(e+n-point),
				sign + "0." + strings.Repeat("0", zeros) + m + "e" + signed(e+n+zeros),
			} {
				checkLiteral(t, s)
			}
			man, _ := strconv.ParseUint(m, 10, 64)
			if _, ok := (number{man: man, exp10: e}).float(); ok {
				decided++
			}
		}
		// 10^e·m is normal for every m of 1–19 digits from 10^-307 to
		// 10^289; there strconv may be needed for one case in 19 at most.
		if -307 <= e && e <= 289 && decided < maxDigits-1 {
			t.Errorf("10^%d: Eisel–Lemire decided %d of %d mantissas", e, decided, maxDigits)
		}
		checkLiteral(t, digits(20+rng.Intn(20))+"e"+strconv.Itoa(e))
	}
	// Exact midpoints between adjacent float64s above 2^53, where
	// round-half-even decides, written as integers and scaled by 10^-3.
	for i := 0; i < 2000; i++ {
		x := math.Ldexp(1+rng.Float64(), 53+rng.Intn(10))
		mid := uint64(x) + uint64(math.Nextafter(x, math.Inf(1))-x)/2
		checkLiteral(t, strconv.FormatUint(mid, 10))
		checkLiteral(t, strconv.FormatUint(mid, 10)+"000e-3")
	}
	for i := 0; i < 20000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for _, s := range []string{
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.FormatFloat(v, 'e', -1, 64),
			strconv.FormatFloat(v, 'e', 16, 64),
			strconv.FormatFloat(v, 'g', 17, 64),
		} {
			checkLiteral(t, s)
		}
		w := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		js, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		checkLiteral(t, string(js))
		checkLiteral(t, strconv.FormatFloat(w, 'f', -1, 64))
	}
}

// signed spells an exponent with its sign, "+" included.
func signed(e int) string {
	if e < 0 {
		return strconv.Itoa(e)
	}
	return "+" + strconv.Itoa(e)
}
