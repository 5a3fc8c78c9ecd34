// Package user imports the package that does not compile, so the
// compiler's message would reach it through the import chain.
package user

import "fexipro/internal/lint/testdata/src/broken/bad"

var X = bad.F()
