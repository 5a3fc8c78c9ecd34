package scan_test

import (
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/method"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestShardedNaiveBitExact(t *testing.T) {
	searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.ContextSearcher {
		return engine.New(scan.NewNaiveKernel(scan.NewNaive(items), shards), 2)
	}, "naive")
}

// shardedSS is the registry's SS on the sharded engine (at shards = 1,
// as everywhere, the sequential searcher).
func shardedSS(items *vec.Matrix, shards int) searchtest.FaultSearcher {
	s, err := method.Sharded("SS", items, method.BuildOptions{}, shards, 2)
	if err != nil {
		panic(err)
	}
	return s.(searchtest.FaultSearcher)
}

func TestShardedSSBitExact(t *testing.T) {
	searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.ContextSearcher {
		return shardedSS(items, shards)
	}, "ss")
}

func TestShardedSSLBitExact(t *testing.T) {
	searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.ContextSearcher {
		return engine.New(scan.NewSSLKernel(scan.NewSSL(items, scan.SSLOptions{}), shards), 2)
	}, "ssl")
}

func TestShardedScanCancellation(t *testing.T) {
	t.Run("naive", func(t *testing.T) {
		searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) searchtest.FaultSearcher {
			return engine.New(scan.NewNaiveKernel(scan.NewNaive(items), shards), 2)
		}, "naive")
	})
	t.Run("ss", func(t *testing.T) {
		searchtest.CheckShardedCancellation(t, shardedSS, "ss")
	})
	t.Run("ssl", func(t *testing.T) {
		searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) searchtest.FaultSearcher {
			return engine.New(scan.NewSSLKernel(scan.NewSSL(items, scan.SSLOptions{}), shards), 2)
		}, "ssl")
	})
}
