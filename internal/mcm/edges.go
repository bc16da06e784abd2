package mcm

import (
	"context"
	"fmt"

	"repro/internal/guard"
	"repro/internal/rat"
)

// Edge is one weighted edge of an explicit cycle-ratio instance: a
// directed arc From→To carrying weight W (the max-plus "gain" along the
// arc) and delay D (the number of tokens / automaton steps it consumes).
// The scenario-aware analysis in internal/sadf builds its max-plus
// automaton as such an edge list and feeds it here.
type Edge struct {
	From, To int
	W, D     int64
}

// EdgeResult reports the maximum cycle ratio of an explicit edge list and
// one critical cycle as node indices.
type EdgeResult struct {
	// CycleRatio is the maximum over directed cycles of ΣW/ΣD.
	CycleRatio rat.Rat
	// Critical lists the nodes of one cycle attaining the maximum, in
	// order (first node repeated implicitly).
	Critical []int
	// HasCycle is false when the edge list is acyclic; CycleRatio and
	// Critical are then meaningless.
	HasCycle bool
}

// MaxCycleRatioEdges computes the maximum cycle ratio ΣW/ΣD over all
// directed cycles of an explicit n-node edge list, using the same Howard
// policy iteration, under the same checkpoints, as MaxCycleRatioCtx.
// Delays must be non-negative; a cycle of zero total delay yields
// ErrDeadlock (its ratio would be infinite).
func MaxCycleRatioEdges(ctx context.Context, n int, edges []Edge) (EdgeResult, error) {
	if n < 0 {
		return EdgeResult{}, fmt.Errorf("mcm: negative node count %d", n)
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return EdgeResult{}, fmt.Errorf("mcm: edge %d->%d outside 0..%d", e.From, e.To, n-1)
		}
		if e.D < 0 {
			return EdgeResult{}, fmt.Errorf("mcm: edge %d->%d has negative delay %d", e.From, e.To, e.D)
		}
	}
	meter := guard.NewMeter(ctx, "mcm")
	adj, err := newGraph(meter, n, len(edges), func(i int) (int, edge) {
		e := edges[i]
		return e.From, edge{to: int32(e.To), w: e.W, d: e.D}
	})
	if err != nil {
		return EdgeResult{}, err
	}
	ratio, cycle, err := solve(meter, adj)
	if err != nil || cycle == nil {
		return EdgeResult{}, err
	}
	return EdgeResult{CycleRatio: ratio, Critical: cycle, HasCycle: true}, nil
}
