package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/sdf"
)

// TestServedSoak is the acceptance scenario of the serving layer, run
// entirely in-process and without a single sleep-based synchronisation:
//
//  1. a concurrent storm of ~200 mixed requests — healthy graphs,
//     structurally broken graphs, explosive graphs under tiny budgets,
//     and fault-injected panics — none of which may kill the server;
//  2. the statespace engine, injected to panic repeatedly, trips its
//     breaker open while hedged requests keep answering through the
//     remaining engines;
//  3. after the injection stops and the (fake) cooldown clock advances,
//     the half-open probe heals the breaker;
//  4. a SIGTERM-style drain completes cleanly with zero leaked
//     goroutines under -race.
func TestServedSoak(t *testing.T) {
	defer noLeaks(t)
	clk := &fakeClock{now: time.Unix(0, 0)}
	// The brownout ladder is pinned at exact: the storm may never hold
	// half the request slots, nor push the recent p99 past the target.
	// Otherwise the ladder would answer the post-storm breaker checks
	// below with bounded answers, without running an engine, for its 2s
	// de-escalation hold. The ladder has its own tests in degrade_test.go.
	s := New(Options{
		Workers:          8,
		QueueDepth:       512,
		AllowInjection:   true,
		Breaker:          guard.BreakerOptions{Threshold: 3, Cooldown: time.Second, Now: clk.Now},
		DegradeTargetP99: time.Hour,
	})

	deadlocked := func() *sdf.Graph {
		g := sdf.NewGraph("deadlocked")
		a := g.MustAddActor("A", 1)
		b := g.MustAddActor("B", 1)
		g.MustAddChannel(a, b, 1, 1, 0)
		g.MustAddChannel(b, a, 1, 1, 0)
		return g
	}
	explosive, err := gen.ExponentialChain(30)
	if err != nil {
		t.Fatal(err)
	}
	panicSS := guard.Fault{Engine: "statespace", Point: guard.PointCheckpoint, Mode: guard.ModePanic, Times: -1}

	// Phase 1+2: the mixed storm. Every request either succeeds or
	// fails with a classified, expected kind; anything else (or an
	// escaped panic, which -race would turn into a crash) fails the
	// soak.
	const storm = 160
	var wg sync.WaitGroup
	var healthy, refused atomic.Int64
	errCh := make(chan error, storm)
	for i := 0; i < storm; i++ {
		req := &Request{Method: "hedged"}
		var wantKinds []string
		switch i % 5 {
		case 0: // healthy hedged traffic, varied graphs for cache churn
			req.Graph = gen.Figure3(int64(1 + i%7))
		case 1: // healthy single-engine traffic
			req.Graph = gen.Figure2()
			req.Method = []string{"matrix", "hsdf"}[i%2]
		case 2: // structurally broken: refused by the precheck
			req.Graph = deadlocked()
			wantKinds = []string{"precondition"}
		case 3: // explosive graph under a tiny budget: refused, not run
			req.Graph = explosive
			req.Budget = 1000
			wantKinds = []string{"budget"}
		case 4: // fault-injected: statespace panics at its 1st checkpoint
			req.Graph = gen.Figure2()
			req.Faults = []guard.Fault{panicSS}
			// Hedged traffic survives the panic via the other engines;
			// once the streak opens the breaker mid-storm, statespace is
			// gated and the request still succeeds.
		}
		wg.Add(1)
		go func(req *Request, wantKinds []string) {
			defer wg.Done()
			res, err := s.Analyze(context.Background(), req)
			switch {
			case err == nil:
				if len(wantKinds) > 0 {
					errCh <- fmt.Errorf("%s on %s: succeeded, want %v", req.Method, req.Graph.Name(), wantKinds)
					return
				}
				if !res.Verified {
					errCh <- fmt.Errorf("%s on %s: unverified success", req.Method, req.Graph.Name())
					return
				}
				healthy.Add(1)
			case KindOf(err) == "overloaded":
				// Legitimate load shedding under the storm.
				refused.Add(1)
			default:
				kind := KindOf(err)
				for _, w := range wantKinds {
					if kind == w {
						refused.Add(1)
						return
					}
				}
				errCh <- fmt.Errorf("%s on %s: kind %q (%v), want %v", req.Method, req.Graph.Name(), kind, err, wantKinds)
			}
		}(req, wantKinds)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatalf("storm failed (healthy=%d refused=%d)", healthy.Load(), refused.Load())
	}
	if healthy.Load() == 0 {
		t.Fatal("storm produced no healthy results")
	}

	// Phase 2 determinism: whatever the storm's scheduling did, a short
	// sequential run of injected single-engine panics drives the
	// statespace breaker open for sure.
	for i := 0; i < 4 && s.BreakerState("statespace") != "open"; i++ {
		_, err := s.Analyze(context.Background(), injected(gen.Figure2(), "statespace", panicSS))
		if err == nil {
			t.Fatal("injected statespace panic succeeded")
		}
	}
	if st := s.BreakerState("statespace"); st != "open" {
		t.Fatalf("statespace breaker = %s, want open", st)
	}

	// With the breaker open, hedged requests keep answering and say the
	// engine is gated.
	res, err := s.Analyze(context.Background(), &Request{Graph: gen.Figure3(99), Method: "hedged"})
	if err != nil {
		t.Fatalf("hedged with statespace open: %v", err)
	}
	report := strings.Join(res.Report, "\n")
	if !strings.Contains(report, "gated") {
		t.Errorf("report while open does not mention gating:\n%s", report)
	}

	// Phase 3: the injection has stopped; advancing the fake clock past
	// the cooldown lets the next statespace request through as the
	// half-open probe, and its success closes the breaker.
	clk.Advance(2 * time.Second)
	if _, err := s.Analyze(context.Background(), &Request{Graph: gen.Figure3(7), Method: "statespace"}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if st := s.BreakerState("statespace"); st != "closed" {
		t.Fatalf("statespace breaker after recovery = %s, want closed", st)
	}

	// A little healthy traffic on the healed server, overlapping the
	// drain below to prove drain waits for in-flight work.
	const tail = 40
	var tailOK atomic.Int64
	for i := 0; i < tail; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Analyze(context.Background(), injected(gen.Figure3(int64(1+i%11)), "hedged")); err == nil {
				tailOK.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if tailOK.Load() == 0 {
		t.Fatal("no healthy tail traffic")
	}

	// Phase 4: graceful drain. The server is idle-ish, so the drain is
	// clean; afterwards admission refuses and health says draining.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Analyze(context.Background(), figure2Request(t, "hedged")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain request: %v, want ErrDraining", err)
	}

	h := s.Health()
	if !h.Draining || h.InFlight != 0 || h.Running != 0 {
		t.Errorf("post-drain health: %+v", h)
	}
	if h.PoolInUse != 0 {
		t.Errorf("pool still holds %d units after drain", h.PoolInUse)
	}
	if h.Served == 0 || h.Failed == 0 {
		t.Errorf("soak counters implausible: served=%d failed=%d", h.Served, h.Failed)
	}
	t.Logf("soak: served=%d failed=%d overloaded=%d cache hits=%d deduped=%d statespace trips=%d",
		h.Served, h.Failed, h.Overloaded, h.CacheHits, h.Deduped, trips(h, "statespace"))
}

func trips(h Health, engine string) int64 {
	for _, e := range h.Engines {
		if e.Engine == engine {
			return e.Trips
		}
	}
	return -1
}
