package mcm

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/guard"
	"repro/internal/rat"
)

// Howard's policy iteration (Cochet-Terrasson et al.; Dasdan, Irani and
// Gupta). A policy picks one out-edge per node; in the policy graph every
// node walks into exactly one cycle, whose ratio ΣW/ΣD is the node's
// value η, and a bias x satisfies x(v) = w − η·d + x(succ(v)) with x = 0
// at one root node per cycle. A round evaluates the policy and then lets
// every node take its best out-edge: the one whose target has the
// highest η, and among those the highest reward w − η·d + x(target). A
// node switches only on strict improvement, so an unchanged policy is
// optimal and its best cycle is critical. Taking the best edge rather
// than the last improving one is what keeps large graphs at a handful of
// rounds.
//
// The core runs in int64. Each cycle ratio is kept reduced as (P, Q)
// with Q > 0, so two equal ratios have identical representations, and
// each bias is kept scaled by its node's Q, which makes every bias an
// integer: Q·x(v) = Q·w − P·d + Q·x(succ(v)). Ratios are compared by
// 128-bit cross products. Should a cycle sum or a scaled bias outgrow
// int64, the whole iteration is redone in checked rationals, which
// follow the same rule and therefore reach the same policy.

// maxRounds bounds the policy rounds as a safety net; the best-improvement
// rule converges in a handful on every graph of the paper.
const maxRounds = 10000

// errOverflow aborts the int64 core; runHoward then redoes the iteration
// in rationals.
var errOverflow = fmt.Errorf("mcm: policy value exceeds int64: %w", rat.ErrOverflow)

// howard holds the policy and the scratch state shared by the int64 core
// and its rational fallback.
type howard struct {
	g      *graph
	meter  *guard.Meter
	pol    []int32 // index into g.e of each node's policy edge
	order  []int32 // evaluation order, see decompose
	mark   []int32
	chain  []int32
	rounds int
}

func newHoward(meter *guard.Meter, g *graph) *howard {
	n := g.n()
	return &howard{
		g: g, meter: meter,
		pol: make([]int32, n), order: make([]int32, 0, n),
		mark: make([]int32, n),
	}
}

// runHoward computes the maximum cycle ratio of g, in which every node
// has an out-edge, and one critical cycle.
func runHoward(meter *guard.Meter, g *graph) (rat.Rat, []int32, error) {
	h := newHoward(meter, g)
	ratio, cycle, err := h.runInt()
	if errors.Is(err, errOverflow) {
		ratio, cycle, err = h.runRat()
	}
	return ratio, cycle, err
}

// initPolicy starts every node on its max-weight out-edge, preferring
// the fewest delays among equals and the first among those.
func (h *howard) initPolicy() {
	for v := range h.pol {
		best := h.g.start[v]
		for k := best + 1; k < h.g.start[v+1]; k++ {
			e, b := &h.g.e[k], &h.g.e[best]
			if e.w > b.w || (e.w == b.w && e.d < b.d) {
				best = k
			}
		}
		h.pol[v] = best
	}
}

// iterate runs policy rounds from the initial policy until no node
// switches. Each round is a checkpoint; eval computes the values of the
// current policy, improve switches nodes and reports whether any did.
func (h *howard) iterate(eval func() error, improve func() (bool, error)) error {
	h.initPolicy()
	for h.rounds = 1; h.rounds <= maxRounds; h.rounds++ {
		h.meter.Phase("policy-evaluation")
		if err := h.meter.Canceled(); err != nil {
			return err
		}
		if err := h.decompose(); err != nil {
			return err
		}
		if err := eval(); err != nil {
			return err
		}
		h.meter.Phase("policy-improvement")
		improved, err := improve()
		if err != nil || !improved {
			return err
		}
	}
	return fmt.Errorf("mcm: Howard's algorithm did not converge in %d rounds", maxRounds)
}

// decompose walks the policy graph and fills h.order so that every node
// follows its policy successor, except the root of each policy cycle,
// which is stored complemented (^v) and opens its cycle. Evaluating the
// nodes in this order sees every successor's value before it is needed.
func (h *howard) decompose() error {
	clear(h.mark)
	order := h.order[:0]
	for s := range h.pol {
		if h.mark[s] != 0 {
			continue
		}
		walk := int32(s) + 1 // marks the nodes first reached from s
		before := len(order)
		chain := h.chain[:0]
		v := int32(s)
		for h.mark[v] == 0 {
			h.mark[v] = walk
			chain = append(chain, v)
			v = h.g.e[h.pol[v]].to
		}
		if h.mark[v] == walk {
			// v closes a new cycle: it becomes the root, and the rest of
			// the cycle follows in reverse, successor first.
			i := len(chain) - 1
			for chain[i] != v {
				i--
			}
			order = append(order, ^v)
			for j := len(chain) - 1; j > i; j-- {
				order = append(order, chain[j])
			}
			chain = chain[:i]
		}
		for j := len(chain) - 1; j >= 0; j-- {
			order = append(order, chain[j])
		}
		h.chain = chain
		if err := h.meter.Tick(int64(len(order) - before)); err != nil {
			return err
		}
	}
	h.order = order
	return nil
}

// cycleRatio is the ratio ΣW/ΣD of the policy cycle through root.
func (h *howard) cycleRatio(root int32) (rat.Rat, error) {
	var sw, sd int64
	ok := true
	for u := root; ; {
		e := &h.g.e[h.pol[u]]
		var okW, okD bool
		sw, okW = rat.AddChecked(sw, e.w)
		sd, okD = rat.AddChecked(sd, e.d)
		ok = ok && okW && okD
		if err := h.meter.Tick(1); err != nil {
			return rat.Rat{}, err
		}
		if u = e.to; u == root {
			break
		}
	}
	switch {
	case !ok:
		return rat.Rat{}, errOverflow
	case sd <= 0:
		return rat.Rat{}, fmt.Errorf("mcm: internal: policy cycle without delay")
	}
	r, err := rat.New(sw, sd)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("mcm: %w", err)
	}
	return r, nil
}

// criticalCycle walks the policy from node best until a node repeats and
// returns that cycle.
func (h *howard) criticalCycle(best int32) []int32 {
	clear(h.mark)
	var walk []int32
	v := best
	for h.mark[v] == 0 {
		walk = append(walk, v)
		h.mark[v] = int32(len(walk))
		v = h.g.e[h.pol[v]].to
	}
	return walk[h.mark[v]-1:]
}

// value is what the int64 core knows of a node: its cycle ratio
// η = p/q, reduced with q > 0, and its bias scaled by q.
type value struct{ p, q, x int64 }

// runInt is the int64 policy iteration; it returns errOverflow when a
// value does not fit.
func (h *howard) runInt() (rat.Rat, []int32, error) {
	val := make([]value, len(h.pol))
	err := h.iterate(func() error { return h.evalInt(val) },
		func() (bool, error) { return h.improveInt(val) })
	if err != nil {
		return rat.Rat{}, nil, err
	}
	best := 0
	for v := range val {
		if cmpRatio(val[v].p, val[v].q, val[best].p, val[best].q) > 0 {
			best = v
		}
	}
	ratio, err := rat.New(val[best].p, val[best].q)
	if err != nil {
		return rat.Rat{}, nil, fmt.Errorf("mcm: %w", err)
	}
	return ratio, h.criticalCycle(int32(best)), nil
}

// evalInt computes the value of every node under the current policy.
func (h *howard) evalInt(val []value) error {
	for _, v := range h.order {
		if v < 0 {
			root := ^v
			r, err := h.cycleRatio(root)
			if err != nil {
				return err
			}
			val[root] = value{p: r.Num(), q: r.Den()}
			continue
		}
		e := &h.g.e[h.pol[v]]
		to := val[e.to]
		r, ok := reward(e, to)
		if !ok {
			return errOverflow
		}
		val[v] = value{p: to.p, q: to.q, x: r}
		if err := h.meter.Tick(1); err != nil {
			return err
		}
	}
	return nil
}

// improveInt moves every node to its best out-edge and reports whether
// any node switched.
func (h *howard) improveInt(val []value) (bool, error) {
	improved := false
	for v := range h.pol {
		best, b := h.pol[v], val[v]
		for k := h.g.start[v]; k < h.g.start[v+1]; k++ {
			e := &h.g.e[k]
			to := val[e.to]
			c := cmpRatio(to.p, to.q, b.p, b.q)
			if c < 0 {
				continue
			}
			r, ok := reward(e, to)
			if !ok {
				return false, errOverflow
			}
			// Equal ratios are equal reduced pairs, so r and b.x share
			// their scale.
			if c > 0 || r > b.x {
				best, b = k, value{p: to.p, q: to.q, x: r}
			}
		}
		if best != h.pol[v] {
			h.pol[v] = best
			improved = true
		}
		if err := h.meter.Tick(1); err != nil {
			return false, err
		}
	}
	return improved, nil
}

// reward is the edge's reward w − η·d + x(to) under the value of its
// target, scaled by to.q: q·w − p·d + to.x, with ok false on int64
// overflow.
func reward(e *edge, to value) (int64, bool) {
	qw, ok1 := rat.MulChecked(to.q, e.w)
	pd, ok2 := rat.MulChecked(to.p, e.d)
	r, ok3 := rat.AddChecked(qw, -pd)
	r, ok4 := rat.AddChecked(r, to.x)
	return r, ok1 && ok2 && ok3 && ok4 && pd != -1<<63 // −pd must not wrap
}

// cmpRatio compares a/b with c/d for b, d > 0 exactly, by 128-bit
// cross products.
func cmpRatio(a, b, c, d int64) int {
	if b == d {
		return cmp.Compare(a, c)
	}
	sa, sc := cmp.Compare(a, 0), cmp.Compare(c, 0)
	if sa != sc || sa == 0 {
		return cmp.Compare(sa, sc)
	}
	h1, l1 := bits.Mul64(uabs(a), uint64(d))
	h2, l2 := bits.Mul64(uabs(c), uint64(b))
	m := cmp.Compare(l1, l2)
	if h1 != h2 {
		m = cmp.Compare(h1, h2)
	}
	return sa * m // equal signs: a negative pair compares reversed
}

func uabs(a int64) uint64 {
	if a < 0 {
		return uint64(-a) // also right for math.MinInt64
	}
	return uint64(a)
}

// runRat is the same iteration in checked rationals, the fallback when
// the int64 core overflows.
func (h *howard) runRat() (rat.Rat, []int32, error) {
	n := len(h.pol)
	eta, x := make([]rat.Rat, n), make([]rat.Rat, n)
	err := h.iterate(func() error { return h.evalRat(eta, x) },
		func() (bool, error) { return h.improveRat(eta, x) })
	if err != nil {
		return rat.Rat{}, nil, err
	}
	best := int32(0)
	for v := int32(1); v < int32(n); v++ {
		if eta[v].Cmp(eta[best]) > 0 {
			best = v
		}
	}
	return eta[best], h.criticalCycle(best), nil
}

func (h *howard) evalRat(eta, x []rat.Rat) error {
	for _, v := range h.order {
		if v < 0 {
			root := ^v
			r, err := h.cycleRatio(root)
			if err != nil {
				return err
			}
			eta[root], x[root] = r, rat.Zero()
			continue
		}
		e := &h.g.e[h.pol[v]]
		u := e.to
		r, err := rewardRat(e, eta[u], x[u])
		if err != nil {
			return err
		}
		eta[v], x[v] = eta[u], r
		if err := h.meter.Tick(1); err != nil {
			return err
		}
	}
	return nil
}

func (h *howard) improveRat(eta, x []rat.Rat) (bool, error) {
	improved := false
	for v := range h.pol {
		best := h.pol[v]
		beta, bx := eta[v], x[v]
		for k := h.g.start[v]; k < h.g.start[v+1]; k++ {
			e := &h.g.e[k]
			u := e.to
			c := eta[u].Cmp(beta)
			if c < 0 {
				continue
			}
			r, err := rewardRat(e, eta[u], x[u])
			if err != nil {
				return false, err
			}
			if c > 0 || r.Cmp(bx) > 0 {
				best, beta, bx = k, eta[u], r
			}
		}
		if best != h.pol[v] {
			h.pol[v] = best
			improved = true
		}
		if err := h.meter.Tick(1); err != nil {
			return false, err
		}
	}
	return improved, nil
}

// rewardRat is w − η·d + x(to) in checked rationals.
func rewardRat(e *edge, eta, xTo rat.Rat) (rat.Rat, error) {
	etaD, err := eta.MulInt(e.d)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("mcm: %w", err)
	}
	r, err := rat.FromInt(e.w).Sub(etaD)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("mcm: %w", err)
	}
	r, err = r.Add(xTo)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("mcm: %w", err)
	}
	return r, nil
}
