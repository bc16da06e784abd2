package mcm

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/guard"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/transform"
)

// randomEdges draws an edge list on n nodes. With huge set, weights and
// delays are sometimes drawn near ±2^62, where the int64 core overflows
// and the rational fallback has to answer.
func randomEdges(rng *rand.Rand, n int, huge bool) []Edge {
	value := func(small int64, signed bool) int64 {
		if huge && rng.Intn(3) == 0 {
			v := int64(1)<<62 - rng.Int63n(1000)
			if signed && rng.Intn(2) == 0 {
				v = -v
			}
			return v
		}
		if signed {
			return rng.Int63n(2*small+1) - small
		}
		return rng.Int63n(small + 1)
	}
	m := 1 + rng.Intn(3*n)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{From: rng.Intn(n), To: rng.Intn(n), W: value(50, true), D: value(3, false)}
	}
	return edges
}

// zeroDelayCycle reports a cycle of zero-delay edges by transitive
// closure, independently of the DFS in hasZeroDelayCycle.
func zeroDelayCycle(n int, edges []Edge) bool {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for _, e := range edges {
		if e.D == 0 {
			reach[e.From][e.To] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j])
			}
		}
	}
	for i := 0; i < n; i++ {
		if reach[i][i] {
			return true
		}
	}
	return false
}

// checkEdgeResult pins a MaxCycleRatioEdges answer against the
// Bellman–Ford oracle: λ* is feasible, λ* − 1/(D²+1) is not (D, the total
// delay, bounds the delay of every simple cycle, so no cycle ratio lies
// strictly between the two), and the critical cycle attains λ*.
func checkEdgeResult(t *testing.T, n int, edges []Edge, res EdgeResult) {
	t.Helper()
	if !res.HasCycle {
		// Acyclic: every λ, however small, is feasible.
		if !lambdaFeasibleEdges(n, edges, big.NewRat(-1<<62, 1)) {
			t.Errorf("reported acyclic, but the oracle finds a cycle: %v", edges)
		}
		return
	}
	lambda := big.NewRat(res.CycleRatio.Num(), res.CycleRatio.Den())
	if !lambdaFeasibleEdges(n, edges, lambda) {
		t.Errorf("λ* = %v is not feasible: %v", res.CycleRatio, edges)
	}
	total := new(big.Int)
	for _, e := range edges {
		total.Add(total, big.NewInt(e.D))
	}
	eps := new(big.Rat).SetFrac(big.NewInt(1), total.Add(total.Mul(total, total), big.NewInt(1)))
	if lambdaFeasibleEdges(n, edges, new(big.Rat).Sub(lambda, eps)) {
		t.Errorf("λ* = %v is not maximal: %v", res.CycleRatio, edges)
	}
	// Along the critical cycle, the best parallel edge at each step must
	// make Σ(w − λ*·d) zero: the cycle attains λ*.
	seen := make(map[int]bool)
	sum := new(big.Rat)
	for i, v := range res.Critical {
		if seen[v] {
			t.Errorf("critical cycle %v repeats node %d", res.Critical, v)
			return
		}
		seen[v] = true
		next := res.Critical[(i+1)%len(res.Critical)]
		var best *big.Rat
		for _, e := range edges {
			if e.From != v || e.To != next {
				continue
			}
			gain := new(big.Rat).Mul(lambda, new(big.Rat).SetInt64(e.D))
			gain.Sub(new(big.Rat).SetInt64(e.W), gain)
			if best == nil || gain.Cmp(best) > 0 {
				best = gain
			}
		}
		if best == nil {
			t.Errorf("critical cycle %v uses a missing edge %d->%d", res.Critical, v, next)
			return
		}
		sum.Add(sum, best)
	}
	if sum.Sign() != 0 {
		t.Errorf("critical cycle %v does not attain λ* = %v: %v", res.Critical, res.CycleRatio, edges)
	}
}

// checkRandomInstance runs MaxCycleRatioEdges on one edge list and
// checks the answer, or the refusal, independently. It reports whether
// the int64 core overflowed and the rational fallback produced the
// checked answer.
func checkRandomInstance(t *testing.T, n int, edges []Edge) (fellBack bool) {
	t.Helper()
	res, err := MaxCycleRatioEdges(context.Background(), n, edges)
	switch {
	case zeroDelayCycle(n, edges):
		if !errors.Is(err, ErrDeadlock) {
			t.Errorf("zero-delay cycle: err = %v, want ErrDeadlock: %v", err, edges)
		}
		return false
	case errors.Is(err, rat.ErrOverflow):
		return false // beyond int64 rationals too: a refusal, never a wrong answer
	case err != nil:
		t.Errorf("MaxCycleRatioEdges: %v: %v", err, edges)
		return false
	}
	checkEdgeResult(t, n, edges, res)
	core := trimmed(t, edgeGraph(t, n, edges))
	if core.n() == 0 {
		return false
	}
	_, _, err = newHoward(testMeter(), core).runInt()
	return errors.Is(err, errOverflow)
}

// testMeter is a meter without deadline for driving the internals.
func testMeter() *guard.Meter { return guard.NewMeter(context.Background(), "mcm") }

func edgeGraph(t *testing.T, n int, edges []Edge) *graph {
	t.Helper()
	g, err := newGraph(testMeter(), n, len(edges), func(i int) (int, edge) {
		e := edges[i]
		return e.From, edge{to: int32(e.To), w: e.W, d: e.D}
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func trimmed(t *testing.T, g *graph) *graph {
	t.Helper()
	core, _, err := trimToCyclic(testMeter(), g)
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// Property: on random edge lists — negative weights, parallel edges,
// self-loops, acyclic parts, and values near 2^62 — every answer passes
// the Bellman–Ford oracle, and the rational fallback is exercised.
func TestMaxCycleRatioEdgesAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fellBack := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(6)
		if checkRandomInstance(t, n, randomEdges(rng, n, trial%2 == 1)) {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Error("no instance overflowed the int64 core into a checked rational answer")
	}
	t.Logf("%d answers came from the rational fallback", fellBack)
}

// The int64 core and the rational fallback follow one improvement rule,
// so wherever both fit they walk the same policies: same rounds, same
// ratio, same critical cycle.
func TestIntegerCoreMatchesRationalPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		edges := randomEdges(rng, n, false)
		if zeroDelayCycle(n, edges) {
			continue
		}
		core := trimmed(t, edgeGraph(t, n, edges))
		if core.n() == 0 {
			continue
		}
		hi := newHoward(testMeter(), core)
		ri, ci, err := hi.runInt()
		if err != nil {
			t.Fatalf("int64 core: %v: %v", err, edges)
		}
		hr := newHoward(testMeter(), core)
		rr, cr, err := hr.runRat()
		if err != nil {
			t.Fatalf("rational path: %v: %v", err, edges)
		}
		if !ri.Equal(rr) || hi.rounds != hr.rounds || len(ci) != len(cr) {
			t.Fatalf("int64 core %v in %d rounds (cycle %v), rational path %v in %d rounds (cycle %v): %v",
				ri, hi.rounds, ci, rr, hr.rounds, cr, edges)
		}
		for i := range ci {
			if ci[i] != cr[i] {
				t.Fatalf("critical cycles differ: %v vs %v: %v", ci, cr, edges)
			}
		}
	}
}

// Two cycles of equal ratio, 2/1 and 4/2, feed node 3 through
// equally good edges. The core reduces every ratio, so the two biases
// share one scale and node 3 keeps its first edge; compared unreduced,
// the second edge would look twice as good and cost a round.
func TestEqualRatiosShareOneScale(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 0, W: 2, D: 1},
		{From: 1, To: 2, W: 2, D: 1},
		{From: 2, To: 1, W: 2, D: 1},
		{From: 3, To: 0, W: 10, D: 0},
		{From: 3, To: 1, W: 10, D: 0},
	}
	hi := newHoward(testMeter(), edgeGraph(t, 4, edges))
	ratio, _, err := hi.runInt()
	if err != nil {
		t.Fatal(err)
	}
	hr := newHoward(testMeter(), edgeGraph(t, 4, edges))
	if _, _, err := hr.runRat(); err != nil {
		t.Fatal(err)
	}
	if !ratio.Equal(rat.FromInt(2)) || hi.rounds != 1 || hr.rounds != 1 {
		t.Errorf("ratio %v in %d int64 rounds and %d rational rounds, want 2 in 1 and 1", ratio, hi.rounds, hr.rounds)
	}
	if hi.pol[3] != hr.pol[3] || hi.g.e[hi.pol[3]].to != 0 {
		t.Errorf("node 3 switched to %d, want it kept on node 0", hi.g.e[hi.pol[3]].to)
	}
}

// mp3 playback's 10601-actor HSDF took 1153 policy rounds under the old
// last-improving-edge rule; the best-improvement rule needs a handful.
// The round count is deterministic, so this pins the rule, not a timing.
func TestMP3PlaybackConvergesInFewRounds(t *testing.T) {
	h, _, err := transform.TraditionalCtx(context.Background(), benchmarks.MP3Playback())
	if err != nil {
		t.Fatal(err)
	}
	adj, err := hsdfGraph(testMeter(), h)
	if err != nil {
		t.Fatal(err)
	}
	hw := newHoward(testMeter(), trimmed(t, adj))
	ratio, _, err := hw.runInt()
	if err != nil {
		t.Fatal(err)
	}
	if !ratio.Equal(rat.FromInt(23040)) {
		t.Errorf("period %v, want 23040", ratio)
	}
	if hw.rounds > 10 {
		t.Errorf("mp3 playback took %d policy rounds, want at most 10", hw.rounds)
	}
}

// largeHSDF is a strongly connected random HSDF graph: a tokenised ring
// with random chords.
func largeHSDF(n int) *sdf.Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	g := sdf.NewGraph("large")
	ids := make([]sdf.ActorID, n)
	for i := range ids {
		ids[i] = g.MustAddActor(actorName(i), 1+rng.Int63n(1000))
	}
	for i := range ids {
		g.MustAddChannel(ids[i], ids[(i+1)%n], 1, 1, 1+rng.Intn(2))
	}
	for c := 0; c < 2*n; c++ {
		g.MustAddChannel(ids[rng.Intn(n)], ids[rng.Intn(n)], 1, 1, 1+rng.Intn(3))
	}
	return g
}

// pausingCtx counts the engine's checkpoint polls and hands one of them
// to the test: the pauseAt-th call of Done signals paused, waits for
// resume and reports "not done" for that poll, so the engine carries on
// after the test has cancelled and must notice the cancellation at a
// later checkpoint of its own. With pauseAt 0 it only counts.
type pausingCtx struct {
	context.Context
	pauseAt int32
	polls   atomic.Int32
	paused  chan struct{}
	resume  chan struct{}
}

func (c *pausingCtx) Done() <-chan struct{} {
	if c.polls.Add(1) == c.pauseAt {
		close(c.paused)
		<-c.resume
		return nil
	}
	return c.Context.Done()
}

// cancelLatency bounds how long the engine may run on after a
// cancellation: in practice it notices within microseconds; the bound
// leaves room for race-instrumented runs on loaded machines.
const cancelLatency = 50 * time.Millisecond

func checkMCMStop(t *testing.T, err error, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	var ee *guard.EngineError
	if !errors.As(err, &ee) || ee.Engine != "mcm" {
		t.Errorf("err = %v, want an EngineError of the mcm engine", err)
	}
}

func TestMaxCycleRatioCtxStopsWhenCancelled(t *testing.T) {
	g := largeHSDF(20000)
	// A first run counts the checkpoint polls; the second pauses three
	// quarters of the way through them, deep in the policy iteration.
	count := &pausingCtx{Context: context.Background()}
	if _, err := MaxCycleRatioCtx(count, g); err != nil {
		t.Fatal(err)
	}
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	pauseAt := count.polls.Load() * 3 / 4
	ctx := &pausingCtx{Context: base, pauseAt: pauseAt, paused: make(chan struct{}), resume: make(chan struct{})}
	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := MaxCycleRatioCtx(ctx, g)
		done <- outcome{err, time.Now()}
	}()
	<-ctx.paused
	cancel()
	cancelled := time.Now()
	close(ctx.resume)
	out := <-done
	checkMCMStop(t, out.err, guard.ErrCanceled)
	if lat := out.at.Sub(cancelled); lat > cancelLatency {
		t.Errorf("MCM ran %v after the cancel, want under %v", lat, cancelLatency)
	}
	var ee *guard.EngineError
	if errors.As(out.err, &ee) && !strings.HasPrefix(ee.Phase, "policy-") {
		t.Errorf("cancelled in phase %q, want a policy round", ee.Phase)
	}
	if got := ctx.polls.Load(); got <= pauseAt {
		t.Errorf("cancellation seen at poll %d, want a checkpoint after the paused poll %d", got, pauseAt)
	}
}

func TestMaxCycleRatioCtxCheckpointFault(t *testing.T) {
	g := largeHSDF(20000)
	count := &pausingCtx{Context: context.Background()}
	if _, err := MaxCycleRatioCtx(count, g); err != nil {
		t.Fatal(err)
	}
	// Every poll is one checkpoint event: fail the one halfway through.
	inj := guard.NewInjector(guard.Fault{Engine: "mcm", Point: guard.PointCheckpoint,
		Mode: guard.ModeError, N: int64(count.polls.Load() / 2)})
	_, err := MaxCycleRatioCtx(guard.WithInjector(context.Background(), inj), g)
	checkMCMStop(t, err, guard.ErrEngineFailed)
	var ee *guard.EngineError
	if errors.As(err, &ee) && !strings.HasPrefix(ee.Phase, "policy-") {
		t.Errorf("fault surfaced in phase %q, want a policy round", ee.Phase)
	}
	if inj.Fired() != 1 {
		t.Errorf("fault fired %d times, want 1", inj.Fired())
	}
}

func TestMaxCycleRatioEdgesHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MaxCycleRatioEdges(ctx, 2, []Edge{{From: 0, To: 1, W: 3, D: 1}, {From: 1, To: 0, W: 1, D: 1}})
	checkMCMStop(t, err, guard.ErrCanceled)
}

// FuzzMaxCycleRatio decodes small edge lists — every fourth byte group
// one edge, magnitudes from tiny to near 2^62 — and checks every answer
// against the Bellman–Ford oracle, and every refusal for its reason.
func FuzzMaxCycleRatio(f *testing.F) {
	f.Add([]byte{2, 0, 1, 3, 1, 1, 0, 1, 1})
	f.Add([]byte{3, 0, 1, 0x85, 1, 1, 2, 0x02, 0x81, 2, 0, 7, 1})
	f.Add([]byte{1, 0, 0, 0xff, 0x83})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		// Bit 7 of the weight and delay bytes selects a value near 2^62,
		// the low bits a small offset.
		magnitude := func(b byte, signed bool) int64 {
			v := int64(b & 0x3f)
			if b&0x80 != 0 {
				v = int64(1)<<62 - v
			}
			if signed && b&0x40 != 0 {
				v = -v
			}
			return v
		}
		var edges []Edge
		for len(data) >= 4 && len(edges) < 24 {
			edges = append(edges, Edge{
				From: int(data[0]) % n, To: int(data[1]) % n,
				W: magnitude(data[2], true), D: magnitude(data[3]&^0x40, false),
			})
			data = data[4:]
		}
		checkRandomInstance(t, n, edges)
	})
}
