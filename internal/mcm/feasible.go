package mcm

import (
	"math/big"

	"repro/internal/rat"
	"repro/internal/sdf"
)

// LambdaFeasible reports whether the cycle ratio λ = num/den is an upper
// bound for every cycle of the HSDF graph g, by checking the parametric
// graph with edge weights exec(src)·den − num·tokens for a positive-weight
// cycle with Bellman–Ford. λ is feasible exactly when λ ≥ the maximum
// cycle ratio, which makes this an independent oracle for cross-checking
// Howard's algorithm in the tests.
func LambdaFeasible(g *sdf.Graph, lambda rat.Rat) (bool, error) {
	if !g.IsHSDF() {
		return false, ErrNotHSDF
	}
	edges := make([]Edge, 0, g.NumChannels())
	for _, c := range g.Channels() {
		edges = append(edges, Edge{From: int(c.Src), To: int(c.Dst), W: g.Actor(c.Src).Exec, D: int64(c.Initial)})
	}
	return lambdaFeasibleEdges(g.NumActors(), edges, big.NewRat(lambda.Num(), lambda.Den())), nil
}

// lambdaFeasibleEdges is the Bellman–Ford check of LambdaFeasible on an
// explicit edge list. It computes in math/big, so it also judges
// instances whose weights and delays come close to the int64 limits.
func lambdaFeasibleEdges(n int, edges []Edge, lambda *big.Rat) bool {
	num, den := lambda.Num(), lambda.Denom()
	w := make([]big.Int, len(edges))
	var t big.Int
	for i, e := range edges {
		w[i].Mul(big.NewInt(e.W), den)
		w[i].Sub(&w[i], t.Mul(big.NewInt(e.D), num))
	}
	// Longest-path Bellman–Ford from a virtual source connected to all
	// nodes with weight 0; a relaxation in round n reveals a positive
	// cycle.
	dist := make([]big.Int, n)
	for round := 0; round <= n; round++ {
		changed := false
		for i, e := range edges {
			if t.Add(&dist[e.From], &w[i]); t.Cmp(&dist[e.To]) > 0 {
				dist[e.To].Set(&t)
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false // still relaxing after n rounds: positive cycle
}
