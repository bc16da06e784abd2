// Package mcm computes the maximum cycle mean (maximum cycle ratio) of
// homogeneous SDF graphs: the maximum over all directed cycles of the sum
// of actor execution times divided by the number of initial tokens on the
// cycle. The reciprocal is the self-timed throughput of the HSDF graph,
// the quantity the traditional conversion path of the paper feeds into.
//
// The primary algorithm is Howard's policy iteration, the consistently
// fastest algorithm in the comparison of Dasdan, Irani and Gupta (DAC'99)
// that the paper cites. It runs in exact int64 arithmetic and falls back
// to checked rationals when a value outgrows int64 (howard.go); a
// parametric Bellman–Ford feasibility check is provided for
// cross-validation.
package mcm

import (
	"context"
	"errors"

	"repro/internal/guard"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// ErrDeadlock indicates a cycle without initial tokens: the HSDF graph can
// never fire the actors on it.
var ErrDeadlock = errors.New("mcm: zero-token cycle (deadlock)")

// ErrNotHSDF indicates the graph has a rate different from 1.
var ErrNotHSDF = errors.New("mcm: graph is not homogeneous")

// Result reports the maximum cycle ratio and one critical cycle.
type Result struct {
	// CycleMean is the maximum over cycles of Σexec/Σtokens: the
	// asymptotic iteration period of the graph.
	CycleMean rat.Rat
	// Critical lists the actors of one cycle attaining the maximum, in
	// order (first actor repeated implicitly).
	Critical []sdf.ActorID
	// HasCycle is false when the graph is acyclic; CycleMean and Critical
	// are then meaningless and the self-timed throughput is unbounded.
	HasCycle bool
}

// edge is one arc of the compact adjacency: its target, its weight (the
// execution time of the source actor) and its delay (initial tokens).
type edge struct {
	to int32
	w  int64
	d  int64
}

// graph is a compact (CSR) adjacency: the out-edges of node v are
// e[start[v]:start[v+1]], in input order.
type graph struct {
	start []int32
	e     []edge
}

func (g *graph) n() int { return len(g.start) - 1 }

// newGraph builds the adjacency of n nodes from an edge count and an
// accessor, keeping each node's out-edges in input order (the policy
// rule breaks ties by that order).
func newGraph(meter *guard.Meter, n, m int, at func(i int) (from int, e edge)) (*graph, error) {
	meter.Phase("build")
	g := &graph{start: make([]int32, n+1), e: make([]edge, m)}
	for i := 0; i < m; i++ {
		from, _ := at(i)
		g.start[from+1]++
		if err := meter.Tick(1); err != nil {
			return nil, err
		}
	}
	for v := 0; v < n; v++ {
		g.start[v+1] += g.start[v]
	}
	next := make([]int32, n)
	copy(next, g.start[:n])
	for i := 0; i < m; i++ {
		from, e := at(i)
		g.e[next[from]] = e
		next[from]++
		if err := meter.Tick(1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MaxCycleRatio computes the maximum cycle mean of an HSDF graph. It
// returns ErrDeadlock if some cycle carries no initial tokens and
// ErrNotHSDF if any rate differs from 1. It cannot be cancelled; engines
// serving a request use MaxCycleRatioCtx.
func MaxCycleRatio(g *sdf.Graph) (Result, error) { return MaxCycleRatioCtx(context.Background(), g) }

// MaxCycleRatioCtx is MaxCycleRatio under the deadline, cancellation and
// fault injector carried by ctx: every policy round is a checkpoint of
// the "mcm" guard engine, and every sweep over the nodes or edges polls
// the context as it goes, so a cancelled computation returns an error
// wrapping guard.ErrCanceled after at most the budget's CheckEvery
// further work units.
func MaxCycleRatioCtx(ctx context.Context, g *sdf.Graph) (Result, error) {
	if !g.IsHSDF() {
		return Result{}, ErrNotHSDF
	}
	meter := guard.NewMeter(ctx, "mcm")
	adj, err := hsdfGraph(meter, g)
	if err != nil {
		return Result{}, err
	}
	ratio, cycle, err := solve(meter, adj)
	if err != nil || cycle == nil {
		return Result{}, err
	}
	actors := make([]sdf.ActorID, len(cycle))
	for i, v := range cycle {
		actors[i] = sdf.ActorID(v)
	}
	return Result{CycleMean: ratio, Critical: actors, HasCycle: true}, nil
}

// hsdfGraph is the adjacency of an HSDF graph: one edge per channel,
// weighted with the execution time of its source actor.
func hsdfGraph(meter *guard.Meter, g *sdf.Graph) (*graph, error) {
	chans := g.Channels()
	return newGraph(meter, g.NumActors(), len(chans), func(i int) (int, edge) {
		c := chans[i]
		return int(c.Src), edge{to: int32(c.Dst), w: g.Actor(c.Src).Exec, d: int64(c.Initial)}
	})
}

// solve is the common front end of both entry points: it rejects
// zero-delay cycles, drops the nodes that cannot reach a cycle and runs
// Howard's policy iteration on the rest. It returns the maximum cycle
// ratio and one critical cycle as node indices of g, or a nil cycle when
// g is acyclic.
func solve(meter *guard.Meter, g *graph) (rat.Rat, []int, error) {
	deadlock, err := hasZeroDelayCycle(meter, g)
	if err != nil {
		return rat.Rat{}, nil, err
	}
	if deadlock {
		return rat.Rat{}, nil, ErrDeadlock
	}
	core, ids, err := trimToCyclic(meter, g)
	if err != nil || core.n() == 0 {
		return rat.Rat{}, nil, err
	}
	ratio, cycle, err := runHoward(meter, core)
	if err != nil {
		return rat.Rat{}, nil, err
	}
	out := make([]int, len(cycle))
	for i, v := range cycle {
		out[i] = ids[v]
	}
	return ratio, out, nil
}

// hasZeroDelayCycle reports whether the subgraph of zero-delay edges
// contains a cycle (iterative colour DFS).
func hasZeroDelayCycle(meter *guard.Meter, g *graph) (bool, error) {
	meter.Phase("zero-delay-check")
	const (
		white = 0
		grey  = 1
		black = 2
	)
	n := g.n()
	colour := make([]byte, n)
	type frame struct{ v, i int32 }
	var stack []frame
	for s := 0; s < n; s++ {
		if colour[s] != white {
			continue
		}
		stack = append(stack[:0], frame{v: int32(s), i: g.start[s]})
		colour[s] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i == g.start[f.v+1] {
				colour[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			e := g.e[f.i]
			f.i++
			if err := meter.Tick(1); err != nil {
				return false, err
			}
			if e.d != 0 {
				continue
			}
			switch colour[e.to] {
			case grey:
				return true, nil
			case white:
				colour[e.to] = grey
				stack = append(stack, frame{v: e.to, i: g.start[e.to]})
			}
		}
	}
	return false, nil
}

// trimToCyclic discards, repeatedly, the nodes without an out-edge into
// the remaining set: what is left are the nodes on or upstream of a
// cycle, each with at least one out-edge. It returns that subgraph,
// renumbered densely, and the original index of each of its nodes (g
// itself when nothing is discarded).
func trimToCyclic(meter *guard.Meter, g *graph) (*graph, []int, error) {
	meter.Phase("trim")
	n := g.n()
	outdeg := make([]int32, n)
	rstart := make([]int32, n+1) // reverse adjacency (CSR), nodes only
	for v := 0; v < n; v++ {
		outdeg[v] = g.start[v+1] - g.start[v]
		for _, e := range g.e[g.start[v]:g.start[v+1]] {
			rstart[e.to+1]++
		}
	}
	for v := 0; v < n; v++ {
		rstart[v+1] += rstart[v]
	}
	radj := make([]int32, len(g.e))
	next := make([]int32, n)
	copy(next, rstart[:n])
	for v := 0; v < n; v++ {
		for _, e := range g.e[g.start[v]:g.start[v+1]] {
			radj[next[e.to]] = int32(v)
			next[e.to]++
		}
	}
	alive := make([]bool, n)
	var queue []int32
	for v := 0; v < n; v++ {
		alive[v] = outdeg[v] > 0
		if !alive[v] {
			queue = append(queue, int32(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if err := meter.Tick(int64(rstart[v+1] - rstart[v] + 1)); err != nil {
			return nil, nil, err
		}
		for _, u := range radj[rstart[v]:rstart[v+1]] {
			if !alive[u] {
				continue
			}
			outdeg[u]--
			if outdeg[u] == 0 {
				alive[u] = false
				queue = append(queue, u)
			}
		}
	}

	ids := make([]int, 0, n)
	index := next // reused: the new index of each surviving node
	for v := 0; v < n; v++ {
		if alive[v] {
			index[v] = int32(len(ids))
			ids = append(ids, v)
		}
	}
	if len(ids) == n {
		return g, ids, nil
	}
	core := &graph{start: make([]int32, len(ids)+1)}
	for i, v := range ids {
		for _, e := range g.e[g.start[v]:g.start[v+1]] {
			if alive[e.to] {
				e.to = index[e.to]
				core.e = append(core.e, e)
			}
		}
		core.start[i+1] = int32(len(core.e))
		if err := meter.Tick(int64(g.start[v+1] - g.start[v] + 1)); err != nil {
			return nil, nil, err
		}
	}
	return core, ids, nil
}
