package obs

import (
	"context"
	"testing"

	"fexipro/internal/search"
)

// TestStatsSink: a context without a sink takes counters and drops them;
// one with a sink accumulates every addition.
func TestStatsSink(t *testing.T) {
	QueryFrom(context.Background()).AddStats(search.Stats{Scanned: 1})
	if QueryFrom(context.Background()) != (Query{}) {
		t.Fatal("a bare context carries a query value")
	}
	var st search.Stats
	ctx := WithStats(context.Background(), &st)
	QueryFrom(ctx).AddStats(search.Stats{Scanned: 2, FullProducts: 1})
	QueryFrom(ctx).AddStats(search.Stats{Scanned: 3})
	if QueryFrom(ctx).Stats != &st || st != (search.Stats{Scanned: 5, FullProducts: 1}) {
		t.Fatalf("sink holds %+v, want 5 scanned and 1 full product", st)
	}
}
