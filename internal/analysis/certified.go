package analysis

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/mcm"
	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/transform"
	"repro/internal/verify"
)

// testTamperHSDF, when non-nil, rewrites the traditionally converted
// graph before the certified HSDF engine analyses it. It exists so
// tests can inject a verified-but-wrong answer through the documented
// trust gap of the HSDF anchor (its edge delays are not re-derivable
// from the original graph) and prove that hedged cross-checking
// surfaces the disagreement instead of returning the wrong result.
var testTamperHSDF func(*sdf.Graph) *sdf.Graph

// ComputeThroughputCertified is ComputeThroughputCtx returning a
// self-verifying certificate alongside the result: the engine's answer
// is packaged with a critical-cycle witness and a node-potential
// feasibility witness over the engine's reference precedence graph, and
// the certificate is validated by the independent checker of
// internal/verify before it is returned. A wrong engine answer fails
// witness extraction or the final check and comes back as an error, not
// as a result.
func ComputeThroughputCertified(ctx context.Context, g *sdf.Graph, method Method) (Throughput, *verify.ThroughputCert, error) {
	var tp Throughput
	var cert *verify.ThroughputCert
	err := guard.Protect(method.String(), "certified-throughput", func() error {
		var err error
		tp, cert, err = computeThroughputCertified(ctx, g, method)
		return err
	})
	if err != nil {
		return Throughput{}, nil, err
	}
	return tp, cert, nil
}

func computeThroughputCertified(ctx context.Context, g *sdf.Graph, method Method) (Throughput, *verify.ThroughputCert, error) {
	fail := func(err error) (Throughput, *verify.ThroughputCert, error) {
		return Throughput{}, nil, fmt.Errorf("analysis: certified %v: %w", method, err)
	}
	// Per-phase spans: when the context carries a registry, every stage
	// of the pipeline — symbolic execution, the eigenvalue / power
	// iteration / MCM core, and certificate construction + check —
	// lands in its own latency series, so an operator can see where an
	// engine's time actually goes. With no registry each span is a nil
	// check.
	reg := obs.FromContext(ctx)
	eng := method.String()
	q, err := g.RepetitionVector()
	if err != nil {
		return fail(err)
	}
	var cert *verify.ThroughputCert
	var tp Throughput
	switch method {
	case Matrix, StateSpace:
		sp := reg.StartSpan("analysis.symbolic", "engine", eng)
		r, err := core.SymbolicIterationCtx(ctx, g)
		sp.Finish()
		if err != nil {
			return fail(err)
		}
		var unbounded bool
		tp = Throughput{Repetition: q}
		if method == Matrix {
			sp := reg.StartSpan("analysis.eigenvalue", "engine", eng)
			lam, hasCycle, err := r.Matrix.EigenvalueCtx(ctx)
			sp.Finish()
			if err != nil {
				return fail(err)
			}
			unbounded, tp.Unbounded, tp.Period = !hasCycle, !hasCycle, lam
		} else {
			const maxIter = 1 << 22
			sp := reg.StartSpan("analysis.power-iteration", "engine", eng)
			res, ok, err := r.Matrix.PowerIterationCtx(ctx, maxIter)
			sp.Finish()
			if err != nil {
				return fail(err)
			}
			unbounded, tp.Unbounded, tp.Period = !ok, !ok, res.CycleMean
		}
		sp = reg.StartSpan("analysis.certify", "engine", eng)
		mc := &verify.MatrixCert{Matrix: r.Matrix, Schedule: r.Schedule}
		cert, err = verify.NewMatrixThroughputCert(ctx, g, mc, q, unbounded, tp.Period)
		if err != nil {
			sp.Finish("outcome", "error")
			return fail(err)
		}
		if err := cert.Check(ctx, g); err != nil {
			sp.Finish("outcome", "invalid")
			return fail(err)
		}
		sp.Finish("outcome", "verified")

	case HSDF:
		sp := reg.StartSpan("analysis.conversion", "engine", eng)
		h, _, err := transform.TraditionalCtx(ctx, g)
		sp.Finish()
		if err != nil {
			return fail(err)
		}
		if testTamperHSDF != nil {
			h = testTamperHSDF(h)
		}
		sp = reg.StartSpan("analysis.mcm", "engine", eng)
		res, err := mcm.MaxCycleRatioCtx(ctx, h)
		sp.Finish()
		if err != nil {
			return fail(err)
		}
		tp = Throughput{Unbounded: !res.HasCycle, Period: res.CycleMean, Repetition: q}
		sp = reg.StartSpan("analysis.certify", "engine", eng)
		cert, err = verify.NewHSDFThroughputCert(ctx, g, h, q, !res.HasCycle, res.CycleMean)
		if err != nil {
			sp.Finish("outcome", "error")
			return fail(err)
		}
		if err := cert.Check(ctx, g); err != nil {
			sp.Finish("outcome", "invalid")
			return fail(err)
		}
		sp.Finish("outcome", "verified")

	default:
		return fail(fmt.Errorf("unknown method %v", method))
	}
	return tp, cert, nil
}
