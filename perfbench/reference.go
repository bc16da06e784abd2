package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/mcm"
	"repro/internal/passes"
	"repro/internal/rat"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/transform"
)

// referenceFile is the file of exact answers every served answer is
// compared with. It is written by -make-reference and embedded in the
// binary, so a run never recomputes it.
const referenceFile = "reference.json"

//go:embed reference.json
var referenceJSON []byte

// refAnswer is the exact answer for one graph or SADF model.
type refAnswer struct {
	Period    string `json:"period,omitempty"` // exact rational; empty when unbounded
	Unbounded bool   `json:"unbounded,omitempty"`
	// Verified says an independently checked certificate backs the
	// period; an entry without it is refused at load time.
	Verified bool `json:"verified"`
	// Routes names the independent computations that agreed.
	Routes []string `json:"routes"`
	// ReduceSteps is the length of the reduction chain of a graph (for
	// a model: summed over its scenarios); AutomatonNodes the size of a
	// model's max-plus automaton. Both must repeat exactly on every
	// traced run.
	ReduceSteps    int `json:"reduce_steps"`
	AutomatonNodes int `json:"automaton_nodes,omitempty"`
}

type reference map[string]refAnswer

// loadReference parses the embedded reference file and checks it covers
// every input with a verified entry.
func loadReference(ins []*input) (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	for _, in := range ins {
		names := []string{in.name}
		if in.kind == kindBatch {
			names = names[:0]
			for _, g := range in.items {
				names = append(names, g.Name())
			}
		}
		for _, n := range names {
			a, ok := ref[n]
			if !ok {
				return nil, fmt.Errorf("%s has no entry for %q: rerun with -make-reference", referenceFile, n)
			}
			if !a.Verified {
				return nil, fmt.Errorf("%s entry %q is not verified", referenceFile, n)
			}
		}
	}
	return ref, nil
}

// refCtx is the unbudgeted context of reference and probe computations
// that must run to completion.
func refCtx() context.Context {
	return guard.WithBudget(context.Background(), guard.Unlimited())
}

// computeReference derives the exact answer of every input of every
// workload. Each SDF period is computed by two independent routes — the
// max-plus eigenvalue of the symbolic iteration matrix and the maximum
// cycle ratio of the traditional HSDF conversion — which must agree,
// and then certified by the matrix engine's checked certificate. The
// Figure-1 graphs must also match the closed form 5n−7 and the fusible
// rings Σexec/2. SADF models are analysed and their certificates
// re-checked.
func computeReference(root string) (reference, error) {
	ctx := refCtx()
	ref := reference{}
	for _, w := range workloadNames {
		ins, err := workloadInputs(w, root)
		if err != nil {
			return nil, err
		}
		for _, in := range ins {
			switch in.kind {
			case kindSADF:
				if _, ok := ref[in.name]; ok {
					continue
				}
				a, err := referenceSADF(ctx, in.model)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", in.name, err)
				}
				ref[in.name] = a
			default:
				for _, g := range in.graphs() {
					if _, ok := ref[g.Name()]; ok {
						continue
					}
					a, err := referenceGraph(ctx, g)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", g.Name(), err)
					}
					ref[g.Name()] = a
				}
			}
		}
	}
	return ref, nil
}

func referenceGraph(ctx context.Context, g *sdf.Graph) (refAnswer, error) {
	sym, err := core.SymbolicIterationCtx(ctx, g)
	if err != nil {
		return refAnswer{}, err
	}
	lambda, hasCycle, err := sym.Matrix.EigenvalueCtx(ctx)
	if err != nil {
		return refAnswer{}, err
	}
	h, _, err := transform.TraditionalCtx(ctx, g)
	if err != nil {
		return refAnswer{}, err
	}
	r, err := mcm.MaxCycleRatio(h)
	if err != nil {
		return refAnswer{}, err
	}
	if hasCycle != r.HasCycle || (hasCycle && !lambda.Equal(r.CycleMean)) {
		return refAnswer{}, fmt.Errorf("routes disagree: eigenvalue %v (cycle %v), traditional HSDF MCM %v (cycle %v)",
			lambda, hasCycle, r.CycleMean, r.HasCycle)
	}
	a := refAnswer{Unbounded: !hasCycle, Routes: []string{"maxplus-eigenvalue", "traditional-hsdf-mcm"}}
	if hasCycle {
		a.Period = lambda.String()
	}
	if want, ok := closedForm(g); ok {
		if a.Unbounded || a.Period != want.String() {
			return refAnswer{}, fmt.Errorf("closed form gives %v, routes give %q", want, a.Period)
		}
		a.Routes = append(a.Routes, "closed-form")
	}
	tp, cert, err := analysis.ComputeThroughputCertified(ctx, g, analysis.Matrix)
	if err != nil {
		return refAnswer{}, err
	}
	if err := cert.Check(ctx, g); err != nil {
		return refAnswer{}, fmt.Errorf("matrix certificate: %w", err)
	}
	if tp.Unbounded != a.Unbounded || (!tp.Unbounded && tp.Period.String() != a.Period) {
		return refAnswer{}, fmt.Errorf("certified matrix engine gives %v, routes give %q", tp.Period, a.Period)
	}
	a.Verified = true
	if a.ReduceSteps, err = reduceSteps(ctx, g); err != nil {
		return refAnswer{}, err
	}
	return a, nil
}

// closedForm returns the period known in closed form for the Figure-1
// graphs (5n−7, §4.1) and the fusible rings (Σexec over the ring's two
// tokens).
func closedForm(g *sdf.Graph) (rat.Rat, bool) {
	var n int
	if _, err := fmt.Sscanf(g.Name(), "figure1_n%d", &n); err == nil {
		return rat.FromInt(int64(5*n - 7)), true
	}
	if strings.HasPrefix(g.Name(), "fusible-ring-") {
		sum := int64(0)
		for _, a := range g.Actors() {
			sum += a.Exec
		}
		r, err := rat.New(sum, 2)
		return r, err == nil
	}
	return rat.Rat{}, false
}

func reduceSteps(ctx context.Context, g *sdf.Graph) (int, error) {
	r, err := passes.Reduce(ctx, g, passes.Options{})
	if err != nil {
		return 0, err
	}
	return len(r.Steps), nil
}

func referenceSADF(ctx context.Context, m *sadf.Model) (refAnswer, error) {
	res, cert, err := sadf.Analyze(ctx, m)
	if err != nil {
		return refAnswer{}, err
	}
	if err := cert.Check(ctx, m.Graphs()); err != nil {
		return refAnswer{}, fmt.Errorf("sadf certificate: %w", err)
	}
	a := refAnswer{
		Unbounded:      res.Unbounded,
		Verified:       true,
		Routes:         []string{"maxplus-automaton-mcm", "sadf-certificate"},
		AutomatonNodes: res.AutomatonNodes,
	}
	if !res.Unbounded {
		a.Period = res.Period.String()
	}
	for _, g := range m.Graphs() {
		n, err := reduceSteps(ctx, g)
		if err != nil {
			return refAnswer{}, err
		}
		a.ReduceSteps += n
	}
	return a, nil
}

// writeReference recomputes the reference and writes it to path.
func writeReference(root, path string) error {
	ref, err := computeReference(root)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d reference answers to %s\n", len(ref), path)
	return nil
}
