package analysis

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// ErrEngineDisagreement marks two engines that both produced *verified*
// throughput certificates for the same graph but claim different
// answers. With the matrix anchor this cannot happen (the anchor is
// fully re-derived from the graph); the HSDF anchor trusts the
// converted graph's edge set and delays, which is the documented gap a
// disagreement squeezes through.
var ErrEngineDisagreement = errors.New("analysis: verified engines disagree")

// DisagreementError carries both verified answers and their
// certificates so a caller (or a human) can adjudicate: each
// certificate pinpoints the reference precedence graph its engine's
// claim is provably exact for.
type DisagreementError struct {
	MethodA, MethodB Method
	ResultA, ResultB Throughput
	CertA, CertB     *verify.ThroughputCert
}

func (e *DisagreementError) Error() string {
	return fmt.Sprintf("analysis: verified engines disagree: %s proves %s, %s proves %s",
		e.MethodA, describeThroughput(e.ResultA), e.MethodB, describeThroughput(e.ResultB))
}

// Unwrap lets errors.Is(err, ErrEngineDisagreement) classify the error.
func (e *DisagreementError) Unwrap() error { return ErrEngineDisagreement }

func describeThroughput(tp Throughput) string {
	if tp.Unbounded {
		return "unbounded throughput"
	}
	return fmt.Sprintf("period %v", tp.Period)
}

// HedgeOptions configures ComputeThroughputHedgedOpts.
type HedgeOptions struct {
	// Engines lists the engines to race; nil races Matrix, StateSpace
	// and HSDF.
	Engines []Method
	// CrossCheck waits for every engine instead of cancelling the
	// losers once one verified answer exists, then compares all
	// verified answers. The winner is the first verified engine in
	// Engines order, which makes reports and disagreements
	// deterministic; the price is the wall time of the slowest engine.
	CrossCheck bool
	// Gate, when non-nil, is consulted once per engine before its racer
	// goroutine is spawned. A non-nil error removes the engine from the
	// race entirely — no goroutine, no meter, no budget consumption —
	// and records it in the report as skipped with the error's text.
	// The serving layer points this at per-engine circuit breakers so a
	// tripped engine is shed instead of raced. The gate error is
	// surfaced verbatim, so gates that reserve state on admission (a
	// half-open breaker's probe slot) see exactly one engine run per
	// nil return.
	Gate func(m Method) error
	// Reduce runs the exact reduction fixpoint of internal/passes before
	// the race: every engine analyses the reduced graph and the winning
	// answer is lifted back to the original, with the lifted certificate
	// chain re-checked against the original graph and published in the
	// report. Off by default; the serving layer reduces before dispatch
	// and races the already-reduced graph instead.
	Reduce bool
}

// HedgeReport extends the resilient ladder's report with the
// certificates of every engine that produced a verified answer.
type HedgeReport struct {
	ResilientReport
	// Certificates holds the verified certificate of every engine that
	// finished with an answer (the winner and any cross-checked peers).
	// With HedgeOptions.Reduce these certify the reduced graph; the
	// lifted chain for the original graph is ReducedCert.
	Certificates map[Method]*verify.ThroughputCert
	// Reduction is the fixpoint trace when HedgeOptions.Reduce shrank
	// the graph before the race; empty otherwise.
	Reduction []string
	// ReducedCert is the winner's certificate lifted through the
	// reduction chain and re-verified against the original graph. Nil
	// unless HedgeOptions.Reduce applied at least one rewrite.
	ReducedCert *verify.ReductionCert
}

// String renders the race for humans, one line per engine (plus one per
// reduction step when the race ran on a reduced graph).
func (r *HedgeReport) String() string {
	var b strings.Builder
	for _, line := range r.Reduction {
		fmt.Fprintf(&b, "%-11s %s\n", "reduce", line)
	}
	for _, a := range r.Attempts {
		switch {
		case r.Answered && a.Method == r.Winner:
			fmt.Fprintf(&b, "%-11s answered\n", a.Method)
		case a.Skipped:
			fmt.Fprintf(&b, "%-11s skipped: %s\n", a.Method, a.Reason)
		case a.Err == nil:
			fmt.Fprintf(&b, "%-11s %s\n", a.Method, a.Reason)
		default:
			fmt.Fprintf(&b, "%-11s failed: %s\n", a.Method, a.Reason)
		}
	}
	return b.String()
}

// ComputeThroughputHedged races the certified engines concurrently
// under the budget carried by ctx: the first engine whose answer
// survives independent verification wins, and the losers are cancelled.
func ComputeThroughputHedged(ctx context.Context, g *sdf.Graph) (Throughput, *HedgeReport, error) {
	return ComputeThroughputHedgedOpts(ctx, g, HedgeOptions{})
}

// ComputeThroughputHedgedOpts is ComputeThroughputHedged with explicit
// options. Every engine runs in its own goroutine behind panic
// isolation and produces a self-verified certificate
// (ComputeThroughputCertified); an unverifiable answer loses the race
// as a failure rather than winning it. The function never returns
// before every racer has delivered its outcome, so it leaks no
// goroutines, and if two engines both return *verified* but different
// answers the result is a *DisagreementError carrying both
// certificates — never a silent pick.
func ComputeThroughputHedgedOpts(ctx context.Context, g *sdf.Graph, opts HedgeOptions) (Throughput, *HedgeReport, error) {
	engines := opts.Engines
	if len(engines) == 0 {
		engines = []Method{Matrix, StateSpace, HSDF}
	}
	// Optional pre-stage: shrink once, race every engine on the reduced
	// graph, lift the winner. A reducer failure (budget, cancellation)
	// is the race's failure — the engines would hit the same wall.
	target := g
	var red *passes.Reduction
	if opts.Reduce {
		r, err := passes.Reduce(ctx, g, passes.Options{})
		if err != nil {
			return Throughput{}, nil, err
		}
		if len(r.Steps) > 0 {
			target, red = r.Final, r
		}
	}
	// The gate sheds engines before anything is spent on them: a gated
	// engine gets no goroutine, no meter and no budget charge, only a
	// skipped line in the report.
	gated := make(map[Method]error)
	racers := make([]Method, 0, len(engines))
	for _, m := range engines {
		if opts.Gate != nil {
			if err := opts.Gate(m); err != nil {
				gated[m] = err
				continue
			}
		}
		racers = append(racers, m)
	}
	reg := obs.FromContext(ctx)
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		tp   Throughput
		cert *verify.ThroughputCert
		err  error
		wall time.Duration
		end  time.Time
	}
	type finish struct {
		method Method
		outcome
	}
	// Buffered to the field size so every racer can deliver and exit
	// even if the receive loop has moved on.
	results := make(chan finish, len(racers))
	var wg sync.WaitGroup
	for _, m := range racers {
		wg.Add(1)
		go func(m Method) {
			defer wg.Done()
			var o outcome
			start := reg.Now()
			// Isolation on top of the isolation inside the certified
			// engine: a panic anywhere in this goroutine must lose the
			// race, not kill the process.
			o.err = guard.Protect(m.String(), "hedged", func() error {
				var err error
				o.tp, o.cert, err = ComputeThroughputCertified(raceCtx, target, m)
				return err
			})
			o.end = reg.Now()
			o.wall = o.end.Sub(start)
			results <- finish{method: m, outcome: o}
		}(m)
	}

	byMethod := make(map[Method]outcome, len(racers))
	var winner Method
	var cancelAt time.Time
	won := false
	for range racers {
		f := <-results
		byMethod[f.method] = f.outcome
		if f.err == nil && !won && !opts.CrossCheck {
			// First verified answer wins; losers observe the
			// cancellation at their next budget checkpoint.
			winner, won = f.method, true
			cancelAt = reg.Now()
			cancel()
		}
	}
	wg.Wait()
	if opts.CrossCheck {
		// Deterministic winner: the first verified engine in race order.
		for _, m := range racers {
			if byMethod[m].err == nil {
				winner, won = m, true
				break
			}
		}
	}

	rep := &HedgeReport{Certificates: make(map[Method]*verify.ThroughputCert)}
	var errs []error
	for _, m := range engines {
		if gerr, ok := gated[m]; ok {
			rep.Attempts = append(rep.Attempts, EngineAttempt{
				Method: m, Skipped: true,
				Reason: fmt.Sprintf("gated: %v", gerr),
				Err:    gerr,
			})
			if !won {
				errs = append(errs, fmt.Errorf("%v: %w", m, gerr))
			}
			continue
		}
		o := byMethod[m]
		switch {
		case o.err == nil && won && m == winner:
			rep.Attempts = append(rep.Attempts, EngineAttempt{Method: m, Wall: o.wall})
		case o.err == nil:
			rep.Attempts = append(rep.Attempts, EngineAttempt{
				Method: m, Wall: o.wall,
				Reason: fmt.Sprintf("verified, cross-checked against the %s engine", winner),
			})
		case won && errors.Is(o.err, guard.ErrCanceled) && !opts.CrossCheck:
			overrun := max(o.end.Sub(cancelAt), 0)
			rep.Attempts = append(rep.Attempts, EngineAttempt{
				Method: m, Skipped: true, Wall: o.wall, Overrun: overrun,
				Reason: fmt.Sprintf("cancelled: the %s engine answered first; ran %v after the cancel",
					winner, overrun.Round(time.Microsecond)),
			})
		default:
			rep.Attempts = append(rep.Attempts, EngineAttempt{Method: m, Reason: o.err.Error(), Err: o.err, Wall: o.wall})
			errs = append(errs, fmt.Errorf("%v: %w", m, o.err))
		}
		if o.err == nil {
			rep.Certificates[m] = o.cert
		}
	}
	countAttempts(reg, "hedge", rep.Attempts)
	if !won {
		reg.Counter(obs.MetricHedgeRaces, "outcome", "failed").Inc()
		return Throughput{}, rep, fmt.Errorf("analysis: no engine produced a verified throughput: %w", errors.Join(errs...))
	}
	rep.Winner, rep.Answered = winner, true

	// Any second verified answer must agree with the winner's; a
	// conflict is structured evidence, not a coin flip.
	win := byMethod[winner]
	for _, m := range racers {
		o := byMethod[m]
		if m == winner || o.err != nil {
			continue
		}
		if o.tp.Unbounded != win.tp.Unbounded ||
			(!o.tp.Unbounded && !o.tp.Period.Equal(win.tp.Period)) {
			reg.Counter(obs.MetricHedgeRaces, "outcome", "disagreement").Inc()
			reg.Emit("hedge.disagreement", "winner", winner.String(), "peer", m.String())
			return Throughput{}, rep, &DisagreementError{
				MethodA: winner, MethodB: m,
				ResultA: win.tp, ResultB: o.tp,
				CertA: win.cert, CertB: o.cert,
			}
		}
	}
	reg.Counter(obs.MetricHedgeRaces, "outcome", "answered").Inc()
	reg.Counter(obs.MetricHedgeWins, "engine", winner.String()).Inc()
	if red != nil {
		rep.Reduction = red.Trace()
		lifted, err := red.LiftCert(win.cert)
		if err != nil {
			return Throughput{}, rep, fmt.Errorf("analysis: hedged lift: %w", err)
		}
		if err := lifted.Check(ctx, g); err != nil {
			return Throughput{}, rep, fmt.Errorf("analysis: hedged lifted certificate rejected: %w", err)
		}
		rep.ReducedCert = lifted
		return Throughput{
			Unbounded:  lifted.Unbounded,
			Period:     lifted.Period,
			Repetition: red.OriginalRepetition(),
		}, rep, nil
	}
	return win.tp, rep, nil
}
