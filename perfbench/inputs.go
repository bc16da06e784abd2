package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/serve"
)

// kind says which endpoint an input is served by.
type kind int

const (
	kindGraph kind = iota // POST /v1/throughput, serve.Server.Analyze
	kindSADF              // POST /v1/sadf, serve.Server.AnalyzeSADF
	kindBatch             // POST /v1/batch, serve.Server.AnalyzeBatch
)

func (k kind) path() string {
	switch k {
	case kindSADF:
		return "/v1/sadf"
	case kindBatch:
		return "/v1/batch"
	}
	return "/v1/throughput"
}

// input is one distinct request of a workload. Its name is the key of
// its reference answer; a graph's or model's own name equals it.
type input struct {
	name  string
	kind  kind
	graph *sdf.Graph   // kindGraph
	model *sadf.Model  // kindSADF
	items []*sdf.Graph // kindBatch, in request order
	body  []byte       // the wire request (native text forms)
}

// graphs returns the SDF graphs the server's per-graph layers see for
// this input: the graph, the batch items, or the SADF scenarios.
func (in *input) graphs() []*sdf.Graph {
	switch in.kind {
	case kindSADF:
		return in.model.Graphs()
	case kindBatch:
		return in.items
	}
	return []*sdf.Graph{in.graph}
}

// Workload names.
const (
	paperCold  = "paper-cold"
	reduceCold = "reduce-cold"
	serveHot   = "serve-hot"
)

var workloadNames = []string{paperCold, reduceCold, serveHot}

// Input-set parameters. prefetchBlocks keeps one Figure-5 prefetch
// request near a second on this class of machine, so a 2-client run
// holds a dozen of them; figure1N and the SADF ladders are the sizes
// the paper's Figure 1 and cmd/sdfbench -sadf use.
const prefetchBlocks = 96

var (
	figure1N    = []int{6, 24, 96}
	sadfLadders = [][2]int{{4, 16}, {8, 64}, {16, 128}} // scenarios × ring size
	// hotLadders are the wire path's ladders. 16×96 replaces 16×128:
	// the 16×128 answer (4.29MB with its certificate) exceeds the 4MiB
	// response limit of the fleet router's relay (fleet/route.go,
	// attempt), which truncates it into invalid JSON. 8×32 replaces
	// 8×64, whose cache hit (about 47ms) sits on the router's 50ms
	// hedge delay, so whether it was hedged flipped with machine speed.
	hotLadders = [][2]int{{4, 16}, {8, 32}, {16, 96}}
	extraRings = []int{256, 512}
)

// workloadInputs builds the distinct inputs of a workload. root is the
// repository root (testdata/graphs lives under it).
func workloadInputs(name, root string) ([]*input, error) {
	var (
		gs     []*sdf.Graph
		models []*sadf.Model
		batch  []*sdf.Graph
	)
	table1 := func() {
		for _, c := range benchmarks.All() {
			gs = append(gs, c.Graph())
		}
	}
	figure1 := func() error {
		for _, n := range figure1N {
			g, err := gen.Figure1(n)
			if err != nil {
				return err
			}
			gs = append(gs, g)
		}
		return nil
	}
	ladders := func(sizes [][2]int) error {
		for _, l := range sizes {
			m, err := ladderModel(l[0], l[1])
			if err != nil {
				return err
			}
			models = append(models, m)
		}
		return nil
	}
	reducible := func() error {
		for _, c := range benchmarks.Reducible() {
			gs = append(gs, c.Graph())
		}
		files, err := filepath.Glob(filepath.Join(root, "testdata", "graphs", "*.sdf"))
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("no testdata/graphs/*.sdf under %q: run from the repository root", root)
		}
		sort.Strings(files)
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			g, err := sdfio.ParseText(string(data))
			if err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			gs = append(gs, g)
		}
		return nil
	}

	switch name {
	case paperCold:
		table1()
		if err := figure1(); err != nil {
			return nil, err
		}
		g, err := gen.Prefetch(prefetchBlocks, 3)
		if err != nil {
			return nil, err
		}
		gs = append(gs, g)
		if err := ladders(sadfLadders); err != nil {
			return nil, err
		}
	case reduceCold:
		for _, n := range extraRings {
			gs = append(gs, benchmarks.FusibleRing(n))
		}
		if err := reducible(); err != nil {
			return nil, err
		}
	case serveHot:
		table1()
		batch = append(batch, gs...)
		if err := figure1(); err != nil {
			return nil, err
		}
		if err := reducible(); err != nil {
			return nil, err
		}
		if err := ladders(hotLadders); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}

	var ins []*input
	seen := map[string]bool{}
	add := func(in *input) error {
		if seen[in.name] {
			return fmt.Errorf("workload %s: duplicate input name %q", name, in.name)
		}
		seen[in.name] = true
		ins = append(ins, in)
		return nil
	}
	for _, g := range gs {
		body, err := json.Marshal(serve.RequestPayload{GraphText: sdfio.TextString(g)})
		if err != nil {
			return nil, err
		}
		if err := add(&input{name: g.Name(), kind: kindGraph, graph: g, body: body}); err != nil {
			return nil, err
		}
	}
	for _, m := range models {
		body, err := json.Marshal(serve.SADFRequestPayload{ModelText: sdfio.SADFTextString(m)})
		if err != nil {
			return nil, err
		}
		if err := add(&input{name: m.Name, kind: kindSADF, model: m, body: body}); err != nil {
			return nil, err
		}
	}
	if len(batch) > 0 {
		p := serve.BatchRequestPayload{}
		for _, g := range batch {
			p.Items = append(p.Items, serve.RequestPayload{GraphText: sdfio.TextString(g)})
		}
		body, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		if err := add(&input{name: "batch-table1", kind: kindBatch, items: batch, body: body}); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// ladderModel builds the synthetic FSM-SADF ladder of cmd/sdfbench
// -sadf: a ring of actors with one token per channel under scenarios
// that differ only in execution times, and an FSM cycling through all
// scenario states with a self-loop on each.
func ladderModel(scenarios, ring int) (*sadf.Model, error) {
	m := &sadf.Model{Name: fmt.Sprintf("synth-s%d-r%d", scenarios, ring)}
	for k := 0; k < scenarios; k++ {
		g := sdf.NewGraph(fmt.Sprintf("scn%d", k))
		for i := 0; i < ring; i++ {
			if _, err := g.AddActor(fmt.Sprintf("A%d", i), int64(1+(i*7+k*3)%5)); err != nil {
				return nil, err
			}
		}
		for i := 0; i < ring; i++ {
			if _, err := g.AddChannelByName(fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", (i+1)%ring), 1, 1, 1); err != nil {
				return nil, err
			}
		}
		m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: fmt.Sprintf("s%d", k), Graph: g})
	}
	for k := 0; k < scenarios; k++ {
		q := fmt.Sprintf("q%d", k)
		m.States = append(m.States, sadf.State{Name: q, Scenario: fmt.Sprintf("s%d", k)})
		m.Transitions = append(m.Transitions, sadf.Transition{From: q, To: fmt.Sprintf("q%d", (k+1)%scenarios)})
		if scenarios > 1 {
			m.Transitions = append(m.Transitions, sadf.Transition{From: q, To: q})
		}
	}
	m.Initial = "q0"
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
