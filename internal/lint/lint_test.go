package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/csdf"
	"repro/internal/gen"
	"repro/internal/passes"
	"repro/internal/rat"
	"repro/internal/schedule"
	"repro/internal/sdf"
)

// inconsistentGraph has two parallel channels whose rates conflict.
func inconsistentGraph() *sdf.Graph {
	g := sdf.NewGraph("inconsistent")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(a, b, 2, 1, 0)
	return g
}

// deadlockedGraph is a two-actor zero-token cycle.
func deadlockedGraph() *sdf.Graph {
	g := sdf.NewGraph("deadlocked")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 0)
	return g
}

// healthyGraph is consistent, live and connected.
func healthyGraph() *sdf.Graph {
	g := sdf.NewGraph("healthy")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, a, 1, 2, 4)
	return g
}

func analyze(t *testing.T, g *sdf.Graph, passes ...string) *Report {
	t.Helper()
	rep, err := Analyze(g, Options{Passes: passes})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestHealthyGraphIsClean(t *testing.T) {
	rep := analyze(t, healthyGraph())
	if rep.HasErrors() || rep.Count(Warning) != 0 {
		t.Errorf("healthy graph not clean:\n%s", rep)
	}
}

func TestConsistencyPass(t *testing.T) {
	rep := analyze(t, inconsistentGraph(), "consistency")
	if !rep.HasErrors() {
		t.Fatalf("inconsistent graph produced no errors:\n%s", rep)
	}
	// The rank-based summary and at least one channel witness.
	diags := rep.ByPass("consistency")
	var haveSummary, haveWitness bool
	for _, d := range diags {
		if strings.Contains(d.Msg, "rank") {
			haveSummary = true
		}
		if d.Channel != "" {
			haveWitness = true
		}
	}
	if !haveSummary || !haveWitness {
		t.Errorf("want rank summary and channel witness, got:\n%s", rep)
	}
	// The healthy graph passes the same pass silently.
	if rep := analyze(t, healthyGraph(), "consistency"); len(rep.Diagnostics) != 0 {
		t.Errorf("consistency flagged a consistent graph:\n%s", rep)
	}
}

// TestTopologyRankMatchesSolver cross-validates the nullspace decision
// against the repetition-vector solver on a mixed bag of graphs.
func TestTopologyRankMatchesSolver(t *testing.T) {
	graphs := []*sdf.Graph{healthyGraph(), inconsistentGraph(), deadlockedGraph()}
	for _, g := range graphs {
		rank, ok := topologyRank(g)
		if !ok {
			t.Fatalf("%s: rank computation overflowed", g.Name())
		}
		comps := len(passes.NewFacts(g).Components())
		_, err := g.RepetitionVector()
		if consistent := err == nil; consistent != (rank == g.NumActors()-comps) {
			t.Errorf("%s: rank %d (n=%d, c=%d) disagrees with solver (consistent=%v)",
				g.Name(), rank, g.NumActors(), comps, consistent)
		}
	}
}

func TestDeadlockPass(t *testing.T) {
	rep := analyze(t, deadlockedGraph(), "deadlock")
	if !rep.HasErrors() {
		t.Fatalf("deadlocked graph produced no errors:\n%s", rep)
	}
	if !strings.Contains(rep.Diagnostics[0].Msg, "token-insufficient") {
		t.Errorf("unexpected deadlock message:\n%s", rep)
	}
	// Blocked self-loop.
	g := sdf.NewGraph("selfblock")
	a := g.MustAddActor("A", 1)
	g.MustAddChannel(a, a, 2, 2, 1)
	rep = analyze(t, g, "deadlock")
	if !rep.HasErrors() || rep.Diagnostics[0].Actor != "A" {
		t.Errorf("blocked self-loop not reported:\n%s", rep)
	}
	// A live graph is clean.
	if rep := analyze(t, healthyGraph(), "deadlock"); len(rep.Diagnostics) != 0 {
		t.Errorf("deadlock flagged a live graph:\n%s", rep)
	}
}

// TestDeadlockPrecheckSound verifies the structural check never flags a
// graph the exact schedule construction can serve: every flagged graph
// must also fail schedule.Sequential.
func TestDeadlockPrecheckSound(t *testing.T) {
	cases := []*sdf.Graph{healthyGraph(), deadlockedGraph()}
	// Three-actor cycle with tokens on one channel only: live.
	g := sdf.NewGraph("ring")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, c, 1, 1, 0)
	g.MustAddChannel(c, a, 1, 1, 1)
	cases = append(cases, g)
	for _, g := range cases {
		rep := analyze(t, g, "deadlock")
		if !rep.HasErrors() {
			continue
		}
		if _, err := schedule.Sequential(g); err == nil {
			t.Errorf("%s: structural deadlock reported but a schedule exists:\n%s", g.Name(), rep)
		}
	}
}

func TestOverflowPass(t *testing.T) {
	// Rate ratios compound beyond int64 while *solving* the balance
	// equations: a chain of 1000:1 channels multiplies q by 1000 per hop.
	g := sdf.NewGraph("solveblow")
	prev := g.MustAddActor("A0", 1)
	for i := 1; i <= 8; i++ {
		next := g.MustAddActor(fmt.Sprintf("A%d", i), 1)
		g.MustAddChannel(prev, next, 1000, 1, 0)
		prev = next
	}
	rep := analyze(t, g, "overflow")
	if !rep.HasErrors() {
		t.Fatalf("10^24 repetition count produced no overflow error:\n%s", rep)
	}
	// The consistency pass stays silent on this graph: the failure is
	// numeric, not structural.
	if rep := analyze(t, g, "consistency"); len(rep.Diagnostics) != 0 {
		t.Errorf("consistency misattributed a solver overflow:\n%s", rep)
	}

	// q representable but Σq overflows int64.
	g2 := sdf.NewGraph("sumblow")
	a := g2.MustAddActor("A", 1)
	prev = a
	for i := 0; i < 4; i++ {
		next := g2.MustAddActor(fmt.Sprintf("B%d", i), 1)
		g2.MustAddChannel(a, next, 1<<62, 1, 0)
		prev = next
	}
	_ = prev
	rep = analyze(t, g2, "overflow")
	if !rep.HasErrors() {
		t.Fatalf("Σq = 1 + 4·2^62 produced no overflow error:\n%s", rep)
	}

	// A large-but-representable iteration gets a warning, not an error.
	g3 := sdf.NewGraph("large")
	p := g3.MustAddActor("P", 1)
	c := g3.MustAddActor("C", 1)
	g3.MustAddChannel(p, c, 1<<32, 1, 0)
	rep = analyze(t, g3, "overflow")
	if rep.HasErrors() || rep.Count(Warning) == 0 {
		t.Errorf("want warning without error for int32-exceeding iteration:\n%s", rep)
	}
	if rep := analyze(t, healthyGraph(), "overflow"); len(rep.Diagnostics) != 0 {
		t.Errorf("overflow flagged a small graph:\n%s", rep)
	}
}

func TestConnectivityPass(t *testing.T) {
	g := sdf.NewGraph("islands")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 1)
	g.MustAddActor("Lone", 1)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 1)
	g.MustAddChannel(c, d, 1, 1, 1)
	g.MustAddChannel(d, c, 1, 1, 1)
	rep := analyze(t, g, "connectivity")
	var isolated, disconnected bool
	for _, di := range rep.Diagnostics {
		if di.Actor == "Lone" {
			isolated = true
		}
		if strings.Contains(di.Msg, "disconnected") {
			disconnected = true
		}
	}
	if !isolated || !disconnected {
		t.Errorf("want isolated-actor and disconnected-component warnings:\n%s", rep)
	}
	if rep := analyze(t, healthyGraph(), "connectivity"); len(rep.Diagnostics) != 0 {
		t.Errorf("connectivity flagged a connected graph:\n%s", rep)
	}
}

func TestRatesPass(t *testing.T) {
	g := sdf.NewGraph("degenerate")
	a := g.MustAddActor("A", 0)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, a, 2, 1, 1) // self-loop, prod != cons
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, b, 1, 1, 3) // over-tokened guard
	g.MustAddChannel(b, a, 1, 1, 1)
	rep := analyze(t, g, "rates")
	var selfLoopErr, guardInfo, zeroExec bool
	for _, d := range rep.Diagnostics {
		switch {
		case d.Severity == Error && strings.Contains(d.Msg, "self-loop"):
			selfLoopErr = true
		case d.Severity == Info && strings.Contains(d.Msg, "concurrent firings"):
			guardInfo = true
		case d.Severity == Info && strings.Contains(d.Msg, "execution time 0"):
			zeroExec = true
		}
	}
	if !selfLoopErr || !guardInfo || !zeroExec {
		t.Errorf("missing rates diagnostics (selfLoopErr=%v guardInfo=%v zeroExec=%v):\n%s",
			selfLoopErr, guardInfo, zeroExec, rep)
	}
	// Coprime blowup warning.
	g2 := sdf.NewGraph("coprime")
	p := g2.MustAddActor("P", 1)
	c := g2.MustAddActor("C", 1)
	g2.MustAddChannel(p, c, 65537, 257, 0)
	rep = analyze(t, g2, "rates")
	if rep.Count(Warning) == 0 {
		t.Errorf("coprime 65537:257 not warned:\n%s", rep)
	}
}

func TestPrecheck(t *testing.T) {
	if err := Precheck(healthyGraph()); err != nil {
		t.Fatalf("healthy graph failed precheck: %v", err)
	}
	err := Precheck(inconsistentGraph())
	if err == nil {
		t.Fatal("inconsistent graph passed precheck")
	}
	if !errors.Is(err, sdf.ErrInconsistent) {
		t.Errorf("precheck error does not wrap sdf.ErrInconsistent: %v", err)
	}
	var pe *PrecheckError
	if !errors.As(err, &pe) || !pe.Report.HasErrors() {
		t.Errorf("precheck error carries no report: %v", err)
	}
	err = Precheck(deadlockedGraph())
	if !errors.Is(err, ErrDeadlockCycle) {
		t.Errorf("deadlock precheck error does not wrap ErrDeadlockCycle: %v", err)
	}
}

func TestAnalyzeUnknownPass(t *testing.T) {
	if _, err := Analyze(healthyGraph(), Options{Passes: []string{"bogus"}}); err == nil {
		t.Error("unknown pass accepted")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := analyze(t, inconsistentGraph())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Graph != rep.Graph || len(back.Diagnostics) != len(rep.Diagnostics) {
		t.Errorf("round trip lost data: %+v vs %+v", back, rep)
	}
	for i, d := range back.Diagnostics {
		if d.Severity != rep.Diagnostics[i].Severity || d.Pass != rep.Diagnostics[i].Pass {
			t.Errorf("diagnostic %d mismatch: %+v vs %+v", i, d, rep.Diagnostics[i])
		}
	}
	// An empty report still serialises a non-null array.
	empty := &Report{Graph: "g"}
	buf.Reset()
	if err := empty.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"diagnostics\": []") {
		t.Errorf("empty diagnostics not an array:\n%s", buf.String())
	}
}

func TestSeverityJSON(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil || back != s {
			t.Errorf("severity %v round trip: %v, %v", s, back, err)
		}
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"bogus"`), &s); err == nil {
		t.Error("bogus severity accepted")
	}
}

func TestAnalyzeCSDF(t *testing.T) {
	// Healthy two-phase producer/consumer.
	g := csdf.NewGraph("cs")
	a := g.MustAddActor("A", []int64{1, 2})
	b := g.MustAddActor("B", []int64{3})
	g.MustAddChannel(a, b, []int{1, 1}, []int{2}, 0)
	g.MustAddChannel(b, a, []int{2}, []int{1, 1}, 4)
	rep := AnalyzeCSDF(g)
	if rep.HasErrors() {
		t.Errorf("healthy CSDF graph has errors:\n%s", rep)
	}
	// Deadlocked zero-token cycle.
	g2 := csdf.NewGraph("csdead")
	x := g2.MustAddActor("X", []int64{1})
	y := g2.MustAddActor("Y", []int64{1})
	g2.MustAddChannel(x, y, []int{1}, []int{1}, 0)
	g2.MustAddChannel(y, x, []int{1}, []int{1}, 0)
	rep = AnalyzeCSDF(g2)
	if !rep.HasErrors() {
		t.Errorf("deadlocked CSDF cycle not reported:\n%s", rep)
	}
	// Zero-time actor info.
	g3 := csdf.NewGraph("cszero")
	z := g3.MustAddActor("Z", []int64{0, 0})
	g3.MustAddChannel(z, z, []int{1, 1}, []int{1, 1}, 2)
	rep = AnalyzeCSDF(g3)
	if rep.Count(Info) == 0 {
		t.Errorf("zero-time CSDF actor not reported:\n%s", rep)
	}
}

// denseTopologyRank is the reference rank: Gaussian elimination of Γ over
// exact rationals, O(C·n²). ok is false when an intermediate overflows
// int64.
func denseTopologyRank(g *sdf.Graph) (rank int, ok bool) {
	n := g.NumActors()
	rows := make([][]rat.Rat, 0, g.NumChannels())
	for _, c := range g.Channels() {
		row := make([]rat.Rat, n)
		if c.Src == c.Dst {
			row[c.Src] = rat.FromInt(int64(c.Prod) - int64(c.Cons))
		} else {
			row[c.Src] = rat.FromInt(int64(c.Prod))
			row[c.Dst] = rat.FromInt(int64(-c.Cons))
		}
		rows = append(rows, row)
	}
	for col := 0; col < n && rank < len(rows); col++ {
		pivot := -1
		for i := rank; i < len(rows); i++ {
			if !rows[i][col].IsZero() {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		p := rows[rank][col]
		for i := rank + 1; i < len(rows); i++ {
			if rows[i][col].IsZero() {
				continue
			}
			f, err := rows[i][col].Div(p)
			if err != nil {
				return 0, false
			}
			for j := col; j < n; j++ {
				t, err := f.Mul(rows[rank][j])
				if err != nil {
					return 0, false
				}
				rows[i][j], err = rows[i][j].Sub(t)
				if err != nil {
					return 0, false
				}
			}
		}
		rank++
	}
	return rank, true
}

// referenceConflicts is the reference witness set: rates propagated by
// BFS over per-actor adjacency lists, every channel that disagrees (or
// overflows) collected in a set.
func referenceConflicts(g *sdf.Graph) []sdf.ChannelID {
	n := g.NumActors()
	type half struct {
		other        sdf.ActorID
		mine, theirs int
		ch           sdf.ChannelID
	}
	adj := make([][]half, n)
	for i, c := range g.Channels() {
		adj[c.Src] = append(adj[c.Src], half{other: c.Dst, mine: c.Prod, theirs: c.Cons, ch: sdf.ChannelID(i)})
		adj[c.Dst] = append(adj[c.Dst], half{other: c.Src, mine: c.Cons, theirs: c.Prod, ch: sdf.ChannelID(i)})
	}
	rates := make([]rat.Rat, n)
	assigned := make([]bool, n)
	bad := make(map[sdf.ChannelID]bool)
	for start := 0; start < n; start++ {
		if assigned[start] {
			continue
		}
		queue := []sdf.ActorID{sdf.ActorID(start)}
		rates[start] = rat.One()
		assigned[start] = true
		for head := 0; head < len(queue); head++ {
			a := queue[head]
			for _, h := range adj[a] {
				want, err := rates[a].Mul(rat.MustNew(int64(h.mine), int64(h.theirs)))
				if err != nil {
					bad[h.ch] = true
					continue
				}
				if !assigned[h.other] {
					rates[h.other] = want
					assigned[h.other] = true
					queue = append(queue, h.other)
				} else if !rates[h.other].Equal(want) {
					bad[h.ch] = true
				}
			}
		}
	}
	ids := make([]sdf.ChannelID, 0, len(bad))
	for id := range bad {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// rankTally counts the corpus shapes checkTopologyRank has seen, so the
// property test can insist that each one was exercised.
type rankTally struct {
	graphs, inconsistent, multiComponent, undecided, denseOverflow, summaryGained int
}

// checkTopologyRank holds propagateRates to the references on g: the rank
// equals the dense elimination's whenever both are exact, the witness set
// is the reference's, and the consistency pass reports the same
// diagnostics as when it ranked Γ by elimination — except that a graph
// whose elimination overflowed now gains its rank summary line.
func checkTopologyRank(t *testing.T, g *sdf.Graph, tally *rankTally) {
	t.Helper()
	forest := propagateRates(g)
	dense, denseOK := denseTopologyRank(g)
	n := g.NumActors()
	comps := len(passes.NewFacts(g).Components())
	tally.graphs++
	if comps > 1 {
		tally.multiComponent++
	}
	if !denseOK {
		tally.denseOverflow++
	}
	if !forest.ok {
		tally.undecided++
		if len(forest.conflicts) == 0 {
			t.Errorf("%s: propagation overflowed but reported no witness", g.Name())
		}
	}
	if forest.ok && denseOK && forest.rank != dense {
		t.Errorf("%s: linear rank %d, dense rank %d", g.Name(), forest.rank, dense)
	}
	ref := referenceConflicts(g)
	if fmt.Sprint(forest.conflicts) != fmt.Sprint(ref) {
		t.Errorf("%s: witnesses %v, reference %v", g.Name(), forest.conflicts, ref)
	}
	_, qErr := g.RepetitionVector()
	if qErr == nil && len(ref) != 0 {
		t.Errorf("%s: consistent graph has witnesses %v", g.Name(), ref)
	}
	if forest.ok && !errors.Is(qErr, rat.ErrOverflow) && (qErr == nil) != (forest.rank == n-comps) {
		t.Errorf("%s: rank %d (n=%d, c=%d) disagrees with solver (%v)", g.Name(), forest.rank, n, comps, qErr)
	}
	if !errors.Is(qErr, sdf.ErrInconsistent) {
		return
	}
	tally.inconsistent++
	rep := analyze(t, g, "consistency")
	var summaries, witnesses []string
	for _, d := range rep.Diagnostics {
		if strings.HasPrefix(d.Msg, "internal:") {
			t.Errorf("%s: %s", g.Name(), d.Msg)
		}
		if d.Channel != "" {
			witnesses = append(witnesses, d.Channel)
		} else {
			summaries = append(summaries, d.Msg)
		}
	}
	var wantWitnesses []string
	for _, id := range ref {
		wantWitnesses = append(wantWitnesses, chanLabel(g, g.Channel(id)))
	}
	if fmt.Sprint(witnesses) != fmt.Sprint(wantWitnesses) {
		t.Errorf("%s: witness diagnostics %q, want %q", g.Name(), witnesses, wantWitnesses)
	}
	switch {
	case denseOK && len(summaries) != 1:
		t.Errorf("%s: %d rank summary lines, want 1 (dense rank %d)", g.Name(), len(summaries), dense)
	case denseOK && !strings.Contains(summaries[0], fmt.Sprintf("rank %d over %d actors in %d component(s)", dense, n, comps)):
		t.Errorf("%s: summary %q, want dense rank %d", g.Name(), summaries[0], dense)
	case len(summaries) > 1:
		t.Errorf("%s: %d rank summary lines", g.Name(), len(summaries))
	case !denseOK && len(summaries) == 1:
		tally.summaryGained++
	}
}

// rebuilt copies g under a new name, passing every channel through edit.
func rebuilt(g *sdf.Graph, name string, edit func(i int, c *sdf.Channel)) *sdf.Graph {
	out := sdf.NewGraph(name)
	for a := 0; a < g.NumActors(); a++ {
		act := g.Actor(sdf.ActorID(a))
		out.MustAddActor(act.Name, act.Exec)
	}
	for i, c := range g.Channels() {
		if edit != nil {
			edit(i, &c)
		}
		out.MustAddChannel(c.Src, c.Dst, c.Prod, c.Cons, c.Initial)
	}
	return out
}

// disjointUnion places the given graphs side by side in one graph.
func disjointUnion(name string, gs ...*sdf.Graph) *sdf.Graph {
	out := sdf.NewGraph(name)
	for k, g := range gs {
		base := sdf.ActorID(out.NumActors())
		for a := 0; a < g.NumActors(); a++ {
			act := g.Actor(sdf.ActorID(a))
			out.MustAddActor(fmt.Sprintf("g%d.%s", k, act.Name), act.Exec)
		}
		for _, c := range g.Channels() {
			out.MustAddChannel(base+c.Src, base+c.Dst, c.Prod, c.Cons, c.Initial)
		}
	}
	return out
}

// TestTopologyRankOracle is the property test of the linear rank: random
// consistent graphs, the same with one rate perturbed, disjoint unions of
// balanced and unbalanced components, unbalanced self-loops and rates
// that overflow the propagation, all against the dense reference.
func TestTopologyRankOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var tally rankTally
	var pool []*sdf.Graph
	for i := 0; i < 150; i++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 1 + rng.Intn(10), MaxRep: 1 + rng.Int63n(6), MaxExec: 3,
			Chords: rng.Intn(8), SelfLoop: rng.Intn(4) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		g = rebuilt(g, fmt.Sprintf("random%d", i), nil)
		pool = append(pool, g)
		if g.NumChannels() > 0 {
			k := rng.Intn(g.NumChannels())
			bump := 1 + rng.Intn(3)
			pool = append(pool, rebuilt(g, fmt.Sprintf("perturbed%d", i), func(j int, c *sdf.Channel) {
				if j == k {
					c.Prod += bump
				}
			}))
		}
	}
	for _, g := range pool {
		checkTopologyRank(t, g, &tally)
	}
	for i := 0; i < 60; i++ {
		parts := make([]*sdf.Graph, 2+rng.Intn(3))
		for j := range parts {
			parts[j] = pool[rng.Intn(len(pool))]
		}
		checkTopologyRank(t, disjointUnion(fmt.Sprintf("union%d", i), parts...), &tally)
	}

	// Self-loops with prod ≠ cons, alone and inside a balanced ring.
	loop := sdf.NewGraph("selfloop")
	a := loop.MustAddActor("A", 1)
	loop.MustAddChannel(a, a, 2, 1, 1)
	checkTopologyRank(t, loop, &tally)
	ring := rebuilt(healthyGraph(), "ring+selfloop", nil)
	ring.MustAddChannel(0, 0, 1, 3, 3)
	checkTopologyRank(t, ring, &tally)
	checkTopologyRank(t, disjointUnion("loop+healthy", loop, healthyGraph(), inconsistentGraph()), &tally)

	// Rates that overflow the int64 propagation: chains compounding 2^62
	// per hop. Two hops are decided exactly by the math/big fallback,
	// alone and beside a conflict in the same component; twenty hops
	// outgrow exactRateBits and stay undecided, witnesses still reported.
	chain := func(name string, hops int) *sdf.Graph {
		g := sdf.NewGraph(name)
		prev := g.MustAddActor("X0", 1)
		for i := 1; i <= hops; i++ {
			next := g.MustAddActor(fmt.Sprintf("X%d", i), 1)
			g.MustAddChannel(prev, next, 1<<62, 1, 0)
			prev = next
		}
		return g
	}
	short, long := chain("chain2", 2), chain("chain20", 20)
	if f := propagateRates(short); !f.ok || f.rank != 2 || len(f.conflicts) == 0 {
		t.Errorf("2-hop 2^62 chain: rank %d ok=%v conflicts=%v, want 2 true with witnesses", f.rank, f.ok, f.conflicts)
	}
	if f := propagateRates(long); f.ok || len(f.conflicts) == 0 {
		t.Errorf("20-hop 2^62 chain: ok=%v conflicts=%v, want undecided with witnesses", f.ok, f.conflicts)
	}
	if f := propagateRates(disjointUnion("chain20+inconsistent", long, inconsistentGraph())); f.ok {
		t.Errorf("undecided component judged: rank %d", f.rank)
	}
	conflicted := rebuilt(inconsistentGraph(), "conflict+chain2", nil)
	tail := conflicted.MustAddActor("C", 1)
	conflicted.MustAddChannel(1, tail, 1<<62, 1, 0)
	conflicted.MustAddChannel(tail, 0, 1<<62, 1, 0)
	if f := propagateRates(conflicted); !f.ok || f.rank != 3 {
		t.Errorf("conflict beside overflow: rank %d ok=%v, want 3 true", f.rank, f.ok)
	}
	for _, g := range []*sdf.Graph{short, long, conflicted, disjointUnion("inconsistent+chain2", inconsistentGraph(), short)} {
		checkTopologyRank(t, g, &tally)
	}
	for i := 0; i < 20; i++ {
		g := pool[rng.Intn(len(pool))]
		if g.NumChannels() == 0 {
			continue
		}
		k := rng.Intn(g.NumChannels())
		checkTopologyRank(t, rebuilt(g, fmt.Sprintf("huge%d", i), func(j int, c *sdf.Channel) {
			if j == k || j == (k+1)%g.NumChannels() {
				c.Prod = 1<<62 - c.Prod
			}
		}), &tally)
	}
	if tally.inconsistent == 0 || tally.multiComponent == 0 || tally.undecided == 0 {
		t.Errorf("corpus misses a shape: %+v", tally)
	}
	t.Logf("corpus: %+v", tally)
}

// FuzzTopologyRank decodes small multigraphs — one actor count byte, then
// four bytes per channel (src, dst, prod, cons) with rates from 1 to
// near 2^62 — and holds the linear rank and witnesses to the references.
func FuzzTopologyRank(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 1, 0, 1, 2, 1})
	f.Add([]byte{2, 0, 1, 2, 1, 1, 2, 1, 2, 2, 0, 1, 1, 3, 3, 1, 2})
	f.Add([]byte{2, 0, 1, 0xc0, 1, 1, 2, 0xc0, 1, 0, 0, 2, 1})
	f.Add([]byte{5, 0, 1, 0x81, 1, 1, 0, 1, 0x81, 2, 3, 1, 2, 4, 5, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		// The top two bits of a rate byte select its magnitude: small
		// (1..4), near 2^31 or near 2^62.
		rate := func(b byte) int {
			switch b >> 6 {
			case 2:
				return 1<<31 - int(b&0x3f)
			case 3:
				return 1<<62 - int(b&0x3f)
			}
			return 1 + int(b&3)
		}
		g := sdf.NewGraph("fuzz")
		for a := 0; a < n; a++ {
			g.MustAddActor(fmt.Sprintf("a%d", a), 1)
		}
		for len(data) >= 4 && g.NumChannels() < 24 {
			g.MustAddChannel(sdf.ActorID(int(data[0])%n), sdf.ActorID(int(data[1])%n), rate(data[2]), rate(data[3]), 1)
			data = data[4:]
		}
		checkTopologyRank(t, g, &rankTally{})
	})
}

// precheckAlloc returns the bytes one PrecheckWith call allocates on g,
// facts included.
func precheckAlloc(t *testing.T, g *sdf.Graph) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := PrecheckWith(passes.NewFacts(g)); err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPrecheckScalesLinearly guards the precheck against super-linear
// work: the paper's full Figure-5 prefetch frame (1584 blocks) may
// allocate at most twice the actor ratio over the 96-block graph.
func TestPrecheckScalesLinearly(t *testing.T) {
	small, large := must(gen.Prefetch(96, 3)), must(gen.Prefetch(1584, 3))
	precheckAlloc(t, small) // warm lazily built package state
	sb, lb := precheckAlloc(t, small), precheckAlloc(t, large)
	actorRatio := float64(large.NumActors()) / float64(small.NumActors())
	ratio := float64(lb) / float64(sb)
	t.Logf("precheck bytes: %d (%d actors) -> %d (%d actors), ×%.1f for ×%.1f actors",
		sb, small.NumActors(), lb, large.NumActors(), ratio, actorRatio)
	if ratio > 2*actorRatio {
		t.Errorf("precheck allocation grew ×%.1f for ×%.1f actors: super-linear", ratio, actorRatio)
	}
}

func BenchmarkPrecheck(b *testing.B) {
	for _, g := range []*sdf.Graph{must(gen.Prefetch(96, 3)), must(gen.Figure1(96)), must(gen.Prefetch(1584, 3))} {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := PrecheckWith(passes.NewFacts(g)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func must(g *sdf.Graph, err error) *sdf.Graph {
	if err != nil {
		panic(err)
	}
	return g
}
