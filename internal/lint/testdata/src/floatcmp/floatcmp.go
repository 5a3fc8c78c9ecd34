// Package floatcmp is a fexlint golden fixture. Each `// want` comment
// asserts one expected diagnostic on its line.
package floatcmp

const eps = 1e-9

func bad(a, b float64, c float32) bool {
	if a == b { // want `floating-point == comparison`
		return true
	}
	if a != b { // want `floating-point != comparison`
		return true
	}
	if float64(c) == a { // want `floating-point == comparison`
		return true
	}
	switch a { // want `switch on a floating-point value`
	case 1.5:
		return true
	}
	var x complex128
	return x == complex(a, b) // want `floating-point == comparison`
}

func good(a, b float64) bool {
	if a == 0 { // exact-zero guard: allowed
		return true
	}
	if 0.0 != b { // exact-zero guard, reversed: allowed
		return true
	}
	if a < b || a >= b { // ordered comparisons: allowed
		return true
	}
	const half = 0.5
	if half == 0.5 { // both sides constant: allowed
		return true
	}
	diff := a - b
	if diff < eps && diff > -eps { // the epsilon idiom: allowed
		return true
	}
	//lint:ignore floatcmp suppression mechanism under test
	return a == b
}

// strict holds directives that silence nothing: each finding under one
// is still reported.
func strict(a, b float64) (bool, bool, bool, bool) {
	//lint:ignore
	w := a == b // want `floating-point == comparison`
	//lint:ignore * every analyzer
	x := a != b // want `floating-point != comparison`
	//lint:ignore floatcmp
	y := a == b // want `floating-point == comparison`
	//lint:ignore flotcmp misspelt analyzer name
	z := a != b // want `floating-point != comparison`
	return w, x, y, z
}
