package vec

import "testing"

// kernelBodies names the bodies of BlockMask and DotInt16 this machine can
// run; forceBody routes the dispatchers to one for the rest of a test.
func kernelBodies() []string {
	if useAVX2 {
		return []string{"avx2", "portable"}
	}
	return []string{"portable"}
}

func forceBody(tb testing.TB, body string) {
	was := useAVX2
	tb.Cleanup(func() { useAVX2 = was })
	useAVX2 = body == "avx2"
}
