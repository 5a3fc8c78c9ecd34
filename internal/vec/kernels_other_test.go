//go:build !amd64

package vec

import "testing"

// kernelBodies and forceBody: there is one body off amd64.
func kernelBodies() []string { return []string{"portable"} }

func forceBody(testing.TB, string) {}
