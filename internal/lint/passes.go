package lint

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"

	"repro/internal/passes"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// chanLabel renders a channel as "Src -> Dst (prod=p cons=c init=d)".
func chanLabel(g *sdf.Graph, c sdf.Channel) string {
	return fmt.Sprintf("%s -> %s (prod=%d cons=%d init=%d)",
		g.Actor(c.Src).Name, g.Actor(c.Dst).Name, c.Prod, c.Cons, c.Initial)
}

// --- consistency -----------------------------------------------------------

// runConsistency decides solvability of the balance equations through the
// nullspace of the topology matrix Γ (one row per channel: +prod at the
// source column, −cons at the destination; self-loops contribute
// prod−cons). A graph with c weakly connected components is consistent
// iff rank(Γ) = n − c, i.e. every component contributes exactly one
// nullspace dimension — the ray spanned by its repetition vector (Lee &
// Messerschmitt).
//
// The rank comes from propagateRates in O(V+E) and is cross-checked
// against the repetition-vector solver on every graph; a disagreement is
// reported as an internal error. When the rank is too large, the same
// propagation localises the fault: every non-tree channel whose balance
// equation disagrees with the propagated rates is reported.
func runConsistency(cx *context) []Diagnostic {
	g := cx.g
	n := g.NumActors()
	if n == 0 || g.NumChannels() == 0 {
		return nil
	}
	if cx.qErr != nil && !errors.Is(cx.qErr, sdf.ErrInconsistent) {
		// The solver failed for a non-structural reason (rational
		// overflow); the overflow pass owns that diagnostic.
		return nil
	}
	forest := propagateRates(g)
	comps := cx.facts.Components()
	nComps := 0
	for _, c := range comps {
		if len(c) > 0 {
			nComps++
		}
	}
	consistent := cx.qErr == nil
	var out []Diagnostic
	if forest.ok && consistent != (forest.rank == n-nComps) {
		// The two decision procedures disagree: that is a bug in one of
		// them, and worth shouting about rather than hiding.
		out = append(out, Diagnostic{
			Pass: "consistency", Severity: Error,
			Msg: fmt.Sprintf("internal: topology-matrix rank %d (n=%d, components=%d) contradicts the repetition-vector solver", forest.rank, n, nComps),
		})
		return out
	}
	if consistent {
		return nil
	}
	if forest.ok {
		out = append(out, Diagnostic{
			Pass: "consistency", Severity: Error,
			Msg: fmt.Sprintf("graph is not consistent: topology matrix has rank %d over %d actors in %d component(s); the balance equations admit only the zero solution",
				forest.rank, n, nComps),
			Fix: "adjust the rates of the channels reported below until every cycle's rate product is balanced",
		})
	}
	for _, id := range forest.conflicts {
		out = append(out, Diagnostic{
			Pass: "consistency", Severity: Error,
			Channel: chanLabel(g, g.Channel(id)),
			Msg:     "balance equation q(src)·prod = q(dst)·cons conflicts with the rates implied by the rest of the graph",
			Fix:     "change prod/cons on this channel (or on the conflicting path) so the cycle's rate product is 1",
		})
	}
	return out
}

// rateForest is the outcome of one rate propagation over a spanning
// forest of the graph.
type rateForest struct {
	// rank is rank(Γ); it is meaningful only when ok.
	rank int
	// ok is false when some component's rates outgrow even the exact
	// fallback (exactRateBits) before its balance is decided.
	ok bool
	// conflicts lists, in ascending order, every channel whose balance
	// equation the int64 rates violate (or could not be evaluated on for
	// overflow).
	conflicts []sdf.ChannelID
}

// rateHalf is one channel seen from one of its endpoints:
// q(this)·mine = q(other)·theirs.
type rateHalf struct {
	other        sdf.ActorID
	mine, theirs int
	ch           sdf.ChannelID
}

// exactRateBits caps the size (numerator plus denominator bits) of a
// rate in the math/big fallback, so a hostile rate pattern still costs
// O(E) bounded-size multiplications.
const exactRateBits = 1024

// propagateRates computes rank(Γ) and the conflicting channels in one
// breadth-first pass per weakly connected component: rational firing
// rates spread from an arbitrary root (rate 1) over a spanning tree, and
// every channel is checked against them.
//
// Rank argument: within a component of k actors, the k−1 rows of the
// spanning tree are linearly independent (peel off a leaf: its column is
// non-zero in exactly one tree row, as every rate is ≥ 1), so the block's
// rank is k−1 or k. The tree rows' nullspace is the ray of the propagated
// rates, so the rank is k−1 exactly when those rates satisfy every
// channel of the component — a self-loop with prod ≠ cons never does.
// Hence rank(Γ) = n − #balanced components.
//
// Tree channels agree by construction, so each conflict names a
// genuinely contradicting constraint. A rate that overflows int64 leaves
// its actor to a later tree, rooted afresh; checks between two trees
// compare unrelated scales, so only a conflict inside one tree decides
// its component unbalanced. A component that overflowed without one is
// decided by exactlyBalanced.
func propagateRates(g *sdf.Graph) rateForest {
	n := g.NumActors()
	chans := g.Channels()
	// Compressed adjacency: each actor's halves in channel order, in one
	// backing array; actor a's are halves[start[a]:start[a+1]].
	start := make([]int, n+1)
	for _, c := range chans {
		start[c.Src+1]++
		start[c.Dst+1]++
	}
	for a := 0; a < n; a++ {
		start[a+1] += start[a]
	}
	halves := make([]rateHalf, 2*len(chans))
	fill := append([]int(nil), start[:n]...)
	for i, c := range chans {
		halves[fill[c.Src]] = rateHalf{other: c.Dst, mine: c.Prod, theirs: c.Cons, ch: sdf.ChannelID(i)}
		fill[c.Src]++
		halves[fill[c.Dst]] = rateHalf{other: c.Src, mine: c.Cons, theirs: c.Prod, ch: sdf.ChannelID(i)}
		fill[c.Dst]++
	}
	rates := make([]rat.Rat, n)
	tree := make([]int, n) // spanning-tree index + 1; 0 = not yet reached
	bad := make([]bool, len(chans))
	var roots []sdf.ActorID
	var conflict, overflow []bool // per tree
	queue := make([]sdf.ActorID, 0, n)
	for root := 0; root < n; root++ {
		if tree[root] != 0 {
			continue
		}
		roots = append(roots, sdf.ActorID(root))
		conflict, overflow = append(conflict, false), append(overflow, false)
		t := len(roots)
		queue = append(queue[:0], sdf.ActorID(root))
		rates[root] = rat.One()
		tree[root] = t
		for head := 0; head < len(queue); head++ {
			a := queue[head]
			for _, h := range halves[start[a]:start[a+1]] {
				want, err := rates[a].Mul(rat.MustNew(int64(h.mine), int64(h.theirs)))
				if err != nil {
					bad[h.ch] = true
					overflow[t-1] = true
					continue
				}
				if tree[h.other] == 0 {
					rates[h.other] = want
					tree[h.other] = t
					queue = append(queue, h.other)
				} else if !rates[h.other].Equal(want) {
					bad[h.ch] = true
					if tree[h.other] == t {
						conflict[t-1] = true
					}
				}
			}
		}
	}
	// Trees split a component only across overflowing channels; merge
	// them back so each component is judged as a whole.
	comp := make([]int, len(roots))
	for i := range comp {
		comp[i] = i
	}
	find := func(i int) int {
		for comp[i] != i {
			comp[i] = comp[comp[i]]
			i = comp[i]
		}
		return i
	}
	for _, c := range chans {
		if a, b := find(tree[c.Src]-1), find(tree[c.Dst]-1); a != b {
			comp[a] = b
			conflict[b] = conflict[b] || conflict[a]
			overflow[b] = overflow[b] || overflow[a]
		}
	}
	forest := rateForest{rank: n, ok: true}
	for i := range comp {
		if find(i) != i {
			continue
		}
		balanced := !conflict[i]
		if balanced && overflow[i] {
			var decided bool
			balanced, decided = exactlyBalanced(roots[i], start, halves)
			forest.ok = forest.ok && decided
		}
		if balanced {
			forest.rank-- // one nullspace dimension
		}
	}
	for id, b := range bad {
		if b {
			forest.conflicts = append(forest.conflicts, sdf.ChannelID(id))
		}
	}
	return forest
}

// exactlyBalanced propagates rates over root's component in unbounded
// rationals and reports whether they satisfy every channel. decided is
// false when a rate outgrows exactRateBits first.
func exactlyBalanced(root sdf.ActorID, start []int, halves []rateHalf) (balanced, decided bool) {
	rates := make(map[sdf.ActorID]*big.Rat)
	rates[root] = big.NewRat(1, 1)
	queue := []sdf.ActorID{root}
	ratio := new(big.Rat)
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		for _, h := range halves[start[a]:start[a+1]] {
			ratio.SetFrac64(int64(h.mine), int64(h.theirs))
			want := new(big.Rat).Mul(rates[a], ratio)
			if want.Num().BitLen()+want.Denom().BitLen() > exactRateBits {
				return false, false
			}
			if have, ok := rates[h.other]; !ok {
				rates[h.other] = want
				queue = append(queue, h.other)
			} else if have.Cmp(want) != 0 {
				return false, true
			}
		}
	}
	return true, true
}

// topologyRank returns rank(Γ) alone; ok is false when some component's
// rates outgrow exactRateBits before its balance is decided.
func topologyRank(g *sdf.Graph) (rank int, ok bool) {
	f := propagateRates(g)
	return f.rank, f.ok
}

// --- deadlock --------------------------------------------------------------

// runDeadlock performs the structural liveness precheck: a directed cycle
// on which *every* channel holds fewer initial tokens than its
// consumption rate can never fire any of its actors (the first firing on
// the cycle would need a predecessor firing first), so the graph
// deadlocks. The check is sound but not complete — multirate token
// accumulation can deadlock without such a cycle — which is exactly what
// makes it a cheap precheck rather than a full schedule construction.
//
// Implementation: strongly connected components of the subgraph of
// token-insufficient channels (Initial < Cons); any SCC that contains one
// of its channels is a witness cycle.
func runDeadlock(cx *context) []Diagnostic {
	g := cx.g
	n := g.NumActors()
	if n == 0 {
		return nil
	}
	insufficient := func(c sdf.Channel) bool { return c.Initial < c.Cons }
	adj := make([][]sdf.ActorID, n)
	for _, c := range g.Channels() {
		if insufficient(c) && c.Src != c.Dst {
			adj[c.Src] = append(adj[c.Src], c.Dst)
		}
	}
	// The SCCs of the token-insufficient subgraph, not of the graph
	// itself, so this cannot come from the shared cycle fact.
	comp := passes.SCC(n, adj)
	var out []Diagnostic
	// Self-loops first: an actor whose self-loop cannot enable its first
	// firing is permanently blocked, the smallest deadlock cycle.
	for _, id := range g.SelfLoops() {
		c := g.Channel(id)
		if insufficient(c) {
			out = append(out, Diagnostic{
				Pass: "deadlock", Severity: Error,
				Actor:   g.Actor(c.Src).Name,
				Channel: chanLabel(g, c),
				Msg:     fmt.Sprintf("self-loop holds %d initial tokens but each firing consumes %d: the actor can never fire", c.Initial, c.Cons),
				Fix:     fmt.Sprintf("give the self-loop at least %d initial tokens", c.Cons),
			})
		}
	}
	// Multi-actor SCCs in the insufficient subgraph.
	members := make(map[int][]sdf.ActorID)
	for a := 0; a < n; a++ {
		members[comp[a]] = append(members[comp[a]], sdf.ActorID(a))
	}
	keys := make([]int, 0, len(members))
	for k := range members {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		ms := members[k]
		if len(ms) < 2 {
			continue
		}
		names := make([]string, 0, len(ms))
		for _, a := range ms {
			names = append(names, g.Actor(a).Name)
		}
		sort.Strings(names)
		shown := names
		if len(shown) > 8 {
			shown = append(append([]string(nil), shown[:8]...), fmt.Sprintf("… %d more", len(names)-8))
		}
		out = append(out, Diagnostic{
			Pass: "deadlock", Severity: Error,
			Msg: fmt.Sprintf("cycle through {%s} is token-insufficient on every channel (initial < cons everywhere): no actor on it can ever fire",
				strings.Join(shown, ", ")),
			Fix: "add initial tokens to at least one channel of the cycle (enough to cover its consumption rate)",
		})
	}
	return out
}

// --- overflow --------------------------------------------------------------

// Bounds for the overflow pass. The traditional conversion materialises
// one actor per firing, so an iteration length beyond int32 breaks its
// indexing on 32-bit platforms (and beyond ~1M it is merely hopeless);
// max-plus time stamps are int64 and a single iteration already reaches
// Σ q(a)·exec(a) in the worst case.
const (
	overflowHardIterBound = math.MaxInt32
	overflowSoftIterBound = 1 << 20
)

// runOverflow bounds the magnitudes the downstream algorithms will
// manipulate: the iteration length Σq (the traditional conversion's actor
// count and the unfolding's index space), per-channel token traffic
// q(src)·prod, and the worst-case iteration makespan Σ q(a)·exec(a)
// (max-plus stamps). All arithmetic is overflow-checked; anything that
// cannot even be computed in int64 is an error, anything beyond the int32
// indexing range a warning.
func runOverflow(cx *context) []Diagnostic {
	if cx.qErr != nil {
		if errors.Is(cx.qErr, rat.ErrOverflow) {
			return []Diagnostic{{
				Pass: "overflow", Severity: Error,
				Msg: "repetition vector overflows int64 while solving the balance equations: the rate ratios compound beyond machine integers",
				Fix: "reduce the rate ratios along long chains; coprime rates multiply into the repetition vector",
			}}
		}
		return nil // inconsistent: the consistency pass already reported
	}
	g := cx.g
	q := cx.q
	var out []Diagnostic
	iterLen, iterOK := cx.facts.IterationLength()
	switch {
	case !iterOK:
		out = append(out, Diagnostic{
			Pass: "overflow", Severity: Error,
			Msg: "iteration length Σq overflows int64: no iteration-based analysis (scheduling, traditional conversion, simulation) can run",
			Fix: "reduce the rate ratios; coprime rates multiply into the repetition vector",
		})
	case iterLen > overflowHardIterBound:
		out = append(out, Diagnostic{
			Pass: "overflow", Severity: Warning,
			Msg: fmt.Sprintf("iteration length %d exceeds int32: the traditional conversion would allocate that many actors and break 32-bit indexing", iterLen),
			Fix: "use the symbolic conversion (size N(N+2) in the token count) or abstract the graph first",
		})
	case iterLen > overflowSoftIterBound:
		out = append(out, Diagnostic{
			Pass: "overflow", Severity: Info,
			Msg: fmt.Sprintf("iteration length %d: the traditional SDF→HSDF conversion will materialise %d actors", iterLen, iterLen),
			Fix: "prefer the symbolic conversion or the abstraction for this graph",
		})
	}
	for i, c := range g.Channels() {
		traffic, ok := rat.MulChecked(q[c.Src], int64(c.Prod))
		if !ok || traffic > overflowHardIterBound {
			d := Diagnostic{
				Pass: "overflow", Severity: Warning,
				Channel: chanLabel(g, g.Channel(sdf.ChannelID(i))),
				Fix:     "lower the channel's rates or the repetition counts feeding it",
			}
			if !ok {
				d.Severity = Error
				d.Msg = "per-iteration token traffic q(src)·prod overflows int64"
			} else {
				d.Msg = fmt.Sprintf("per-iteration token traffic %d exceeds int32; buffer accounting may overflow machine ints", traffic)
			}
			out = append(out, d)
		}
	}
	var makespan int64
	for a, v := range q {
		work, ok := rat.MulChecked(v, g.Actor(sdf.ActorID(a)).Exec)
		if ok {
			makespan, ok = rat.AddChecked(makespan, work)
		}
		if !ok {
			out = append(out, Diagnostic{
				Pass: "overflow", Severity: Error,
				Actor: g.Actor(sdf.ActorID(a)).Name,
				Msg:   "worst-case iteration makespan Σ q·exec overflows int64: max-plus time stamps would wrap",
				Fix:   "rescale execution times to a coarser time unit",
			})
			break
		}
	}
	return out
}

// --- connectivity ----------------------------------------------------------

// runConnectivity reports disconnected structure: isolated actors (no
// channels at all) and secondary weakly connected components. Both are
// legal SDF but almost always modelling accidents, and the reduction
// algorithms assume a connected input.
func runConnectivity(cx *context) []Diagnostic {
	g := cx.g
	if g.NumActors() == 0 {
		return []Diagnostic{{
			Pass: "connectivity", Severity: Warning,
			Msg: "graph has no actors",
		}}
	}
	degree := make([]int, g.NumActors())
	for _, c := range g.Channels() {
		degree[c.Src]++
		degree[c.Dst]++
	}
	var out []Diagnostic
	for a, d := range degree {
		if d == 0 {
			out = append(out, Diagnostic{
				Pass: "connectivity", Severity: Warning,
				Actor: g.Actor(sdf.ActorID(a)).Name,
				Msg:   "actor has no channels: it is unconstrained and fires infinitely often in self-timed execution",
				Fix:   "connect the actor or remove it from the model",
			})
		}
	}
	comps := cx.facts.Components()
	for _, comp := range comps[1:] {
		if len(comp) == 1 && degree[comp[0]] == 0 {
			continue // already reported as isolated
		}
		names := make([]string, 0, len(comp))
		for _, a := range comp {
			names = append(names, g.Actor(a).Name)
		}
		sort.Strings(names)
		shown := names
		if len(shown) > 8 {
			shown = append(append([]string(nil), shown[:8]...), fmt.Sprintf("… %d more", len(names)-8))
		}
		out = append(out, Diagnostic{
			Pass: "connectivity", Severity: Warning,
			Msg: fmt.Sprintf("actors {%s} are disconnected from the main component; throughput and the reductions are per-component",
				strings.Join(shown, ", ")),
			Fix: "analyse the components separately or connect them",
		})
	}
	return out
}

// --- rates (degenerate) ----------------------------------------------------

// coprimeBlowupBound flags channels whose coprime rates multiply the
// repetition vector: prod·cons beyond this with gcd 1 is almost always a
// rate-specification mistake rather than a real 1000:999-style converter.
const coprimeBlowupBound = 1 << 16

// runRates flags degenerate rate/delay patterns that are legal but almost
// always wrong: self-loops that permit multiple concurrent firings
// (auto-concurrency guards carry exactly one token), self-loops whose
// rates differ (always inconsistent), zero-time actors, and coprime rate
// pairs large enough to explode the repetition vector.
func runRates(cx *context) []Diagnostic {
	g := cx.g
	var out []Diagnostic
	for i, c := range g.Channels() {
		label := chanLabel(g, g.Channel(sdf.ChannelID(i)))
		if c.Src == c.Dst {
			if c.Prod != c.Cons {
				out = append(out, Diagnostic{
					Pass: "rates", Severity: Error,
					Actor: g.Actor(c.Src).Name, Channel: label,
					Msg: "self-loop with prod ≠ cons makes the balance equations unsolvable for this actor",
					Fix: "use equal production and consumption rates on self-loops",
				})
			} else if c.Initial >= 2*c.Cons && c.Cons > 0 {
				out = append(out, Diagnostic{
					Pass: "rates", Severity: Info,
					Actor: g.Actor(c.Src).Name, Channel: label,
					Msg: fmt.Sprintf("self-loop allows %d concurrent firings; auto-concurrency guards usually carry exactly cons tokens", c.Initial/c.Cons),
				})
			}
			continue
		}
		if d := gcdInt(c.Prod, c.Cons); d == 1 && c.Prod > 1 && c.Cons > 1 && c.Prod*c.Cons > coprimeBlowupBound {
			out = append(out, Diagnostic{
				Pass: "rates", Severity: Warning,
				Channel: label,
				Msg:     fmt.Sprintf("coprime rates %d:%d multiply the repetition vector by their product; verify they are intended", c.Prod, c.Cons),
			})
		}
	}
	for a := 0; a < g.NumActors(); a++ {
		if g.Actor(sdf.ActorID(a)).Exec == 0 {
			out = append(out, Diagnostic{
				Pass: "rates", Severity: Info,
				Actor: g.Actor(sdf.ActorID(a)).Name,
				Msg:   "actor has execution time 0: it fires in zero time and never constrains throughput",
			})
		}
	}
	return out
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
