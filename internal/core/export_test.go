package core

import (
	"context"

	"qoschain/internal/graph"
)

// SelectOnFreshScratch runs one Select on a scratch no earlier run has
// touched, bypassing the pool: the oracle the reused-scratch tests
// compare pooled runs against.
func SelectOnFreshScratch(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	return new(scratch).run(ctx, g, cfg)
}
