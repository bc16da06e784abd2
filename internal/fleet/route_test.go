package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/serve"
)

// testBackoff is fast and deterministic: retries fire after ~1ms.
var testBackoff = guard.Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond}

// twoReplicaRouter builds a router over two handlers, with hedging
// disabled unless the options say otherwise, and returns it plus a
// request body whose ring primary is replica 0.
func twoReplicaRouter(t *testing.T, primary, secondary http.Handler, tweak func(*Options)) (*Router, []byte) {
	t.Helper()
	a := httptest.NewServer(primary)
	t.Cleanup(a.Close)
	b := httptest.NewServer(secondary)
	t.Cleanup(b.Close)
	opts := Options{
		Replicas:      []string{a.URL, b.URL},
		ProbeInterval: time.Hour, // probes stay out of these tests
		HedgeDelay:    -1,
		Obs:           obs.New(),
	}
	opts.Backoff = testBackoff
	if tweak != nil {
		tweak(&opts)
	}
	r := New(opts)
	t.Cleanup(r.Close)
	return r, bodyWithPrimary(t, r, 0)
}

func TestRouteFailoverOnServerError(t *testing.T) {
	defer noLeaks(t)
	var primaryHits, secondaryHits atomic.Int64
	r, body := twoReplicaRouter(t,
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			primaryHits.Add(1)
			http.Error(w, `{"error":"boom","kind":"internal"}`, http.StatusInternalServerError)
		}),
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			secondaryHits.Add(1)
			w.Write(okPayload("matrix"))
		}), nil)

	rec := post(t, NewHandler(r), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover post = %d, body %s", rec.Code, rec.Body)
	}
	if primaryHits.Load() != 1 || secondaryHits.Load() != 1 {
		t.Errorf("hits = %d/%d, want 1/1", primaryHits.Load(), secondaryHits.Load())
	}
	reg := r.Registry()
	if got := reg.Counter(obs.MetricFleetRetries, "replica", r.members[1].addr).Value(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := reg.Counter(obs.MetricFleetAttempts, "replica", r.members[0].addr, "outcome", "retryable").Value(); got != 1 {
		t.Errorf("primary retryable attempts = %d, want 1", got)
	}
	// The winning replica is named on the response.
	if got := rec.Header().Get("X-SDF-Replica"); got != r.members[1].addr {
		t.Errorf("X-SDF-Replica = %q, want %q", got, r.members[1].addr)
	}
}

func TestRouteFailoverOnDeadReplica(t *testing.T) {
	defer noLeaks(t)
	var secondaryHits atomic.Int64
	// The primary is a dead address: its httptest server is closed
	// before the storm, so attempts get connection refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		secondaryHits.Add(1)
		w.Write(okPayload("matrix"))
	}))
	t.Cleanup(live.Close)

	opts := Options{
		Replicas:      []string{deadURL, live.URL},
		ProbeInterval: time.Hour,
		HedgeDelay:    -1,
		FailThreshold: 2,
		Obs:           obs.New(),
	}
	opts.Backoff = testBackoff
	r := New(opts)
	t.Cleanup(r.Close)
	h := NewHandler(r)

	body := bodyWithPrimary(t, r, 0)
	for i := 0; i < 2; i++ {
		if rec := post(t, h, body); rec.Code != http.StatusOK {
			t.Fatalf("post %d through dead primary = %d, body %s", i, rec.Code, rec.Body)
		}
	}
	// Two transport failures hit the passive-health threshold: the dead
	// replica is ejected without a single probe.
	if r.members[0].isAlive() {
		t.Error("dead primary still alive after two transport failures")
	}
	if got := r.Registry().Counter(obs.MetricFleetEjections, "replica", r.members[0].addr).Value(); got != 1 {
		t.Errorf("ejections = %d, want 1", got)
	}
	// The next request skips the ejected primary entirely.
	before := secondaryHits.Load()
	if rec := post(t, h, body); rec.Code != http.StatusOK {
		t.Fatalf("post after ejection = %d", rec.Code)
	}
	if secondaryHits.Load() != before+1 {
		t.Errorf("secondary hits moved %d, want exactly one more", secondaryHits.Load()-before)
	}
}

func TestRouteDeterministicFailureNotRetried(t *testing.T) {
	defer noLeaks(t)
	var secondaryHits atomic.Int64
	r, body := twoReplicaRouter(t,
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(serve.ErrorPayload{Error: "inconsistent rates", Kind: "precondition"})
		}),
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			secondaryHits.Add(1)
			w.Write(okPayload("matrix"))
		}), nil)

	rec := post(t, NewHandler(r), body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("precondition post = %d, want 422 relayed", rec.Code)
	}
	var ep serve.ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil || ep.Kind != "precondition" {
		t.Errorf("relayed payload = %s (err %v), want kind precondition", rec.Body, err)
	}
	if secondaryHits.Load() != 0 {
		t.Errorf("deterministic failure retried on the secondary %d times, want 0", secondaryHits.Load())
	}
}

func TestRouteRetryHonorsRetryAfter(t *testing.T) {
	defer noLeaks(t)
	var primaryAt, secondaryAt atomic.Int64
	r, body := twoReplicaRouter(t,
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			primaryAt.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(serve.ErrorPayload{Error: "full", Kind: "overloaded"})
		}),
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			secondaryAt.Store(time.Now().UnixNano())
			w.Write(okPayload("matrix"))
		}), nil)

	rec := post(t, NewHandler(r), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("post = %d, body %s", rec.Code, rec.Body)
	}
	// The replica's 1s Retry-After outranks the millisecond backoff
	// schedule: the failover attempt must not have fired early.
	gap := time.Duration(secondaryAt.Load() - primaryAt.Load())
	if gap < time.Second {
		t.Errorf("failover fired after %v, want >= 1s (Retry-After honoured)", gap)
	}
}

func TestRouteHedgeWinCancelsPrimaryWithoutLeaks(t *testing.T) {
	defer noLeaks(t)
	primaryCancelled := make(chan struct{}, 1)
	r, body := twoReplicaRouter(t,
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			// A hung primary: it answers only when the router gives up
			// on it. Drain the body first — like a real replica would —
			// so the server can watch for the client disconnect (Go only
			// arms its disconnect detection once the body is consumed).
			io.ReadAll(req.Body)
			select {
			case <-req.Context().Done():
				primaryCancelled <- struct{}{}
			case <-time.After(10 * time.Second):
			}
			http.Error(w, "too late", http.StatusInternalServerError)
		}),
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Write(okPayload("matrix"))
		}),
		func(o *Options) { o.HedgeDelay = 5 * time.Millisecond })

	start := time.Now()
	rec := post(t, NewHandler(r), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged post = %d, body %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hedged answer took %v; the hung primary dictated the pace", elapsed)
	}
	reg := r.Registry()
	if got := reg.Counter(obs.MetricFleetHedgeWins, "replica", r.members[1].addr).Value(); got != 1 {
		t.Errorf("hedge wins = %d, want 1", got)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(5 * time.Second):
		t.Error("losing primary attempt was never cancelled")
	}
}

func TestRouteHedgeLoss(t *testing.T) {
	defer noLeaks(t)
	release := make(chan struct{})
	defer close(release)
	hedgeArrived := make(chan struct{})
	r, body := twoReplicaRouter(t,
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			// The primary answers only once the hedge is in flight. An
			// instant answer could reach the router before its zero-delay
			// hedge timer does (a router goroutine descheduled under load
			// sees both ready and may pick the answer); then no hedge is
			// launched and no loss is counted.
			select {
			case <-hedgeArrived:
			case <-req.Context().Done():
			}
			w.Write(okPayload("matrix"))
		}),
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			close(hedgeArrived)
			// The hedge target blocks until cancelled: the primary must
			// win every race. Body drained so disconnect detection works.
			io.ReadAll(req.Body)
			select {
			case <-req.Context().Done():
			case <-release:
			}
			w.Write(okPayload("matrix"))
		}),
		func(o *Options) { *o = o.ImmediateHedge() })

	rec := post(t, NewHandler(r), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("post = %d", rec.Code)
	}
	reg := r.Registry()
	losses := reg.Counter(obs.MetricFleetHedgeLosses, "replica", r.members[0].addr).Value()
	wins := reg.Counter(obs.MetricFleetHedgeWins, "replica", r.members[1].addr).Value()
	if losses != 1 || wins != 0 {
		t.Errorf("hedge losses/wins = %d/%d, want 1/0", losses, wins)
	}
}

func TestRouteDeadlineBudgetCarvedAcrossAttempts(t *testing.T) {
	defer noLeaks(t)
	r, body := twoReplicaRouter(t,
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			// Hangs until cancelled: only the per-attempt deadline can
			// unstick the request. Body drained so the cancel is seen.
			io.ReadAll(req.Body)
			<-req.Context().Done()
		}),
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Write(okPayload("matrix"))
		}),
		func(o *Options) {
			o.DefaultTimeout = 2 * time.Second
			o.AttemptFloor = 50 * time.Millisecond
		})

	start := time.Now()
	rec := post(t, NewHandler(r), body)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("post = %d, body %s", rec.Code, rec.Body)
	}
	// The budget is ~4s (2s + slack) over two replicas: the hung
	// primary gets roughly half, then failover answers. Without the
	// per-attempt carve the primary would eat the whole budget and the
	// request would fail instead.
	if elapsed >= 4*time.Second {
		t.Errorf("request took %v; per-attempt budgeting failed to cut the hung primary short", elapsed)
	}
	if got := r.Registry().Counter(obs.MetricFleetAttempts, "replica", r.members[1].addr, "outcome", "ok").Value(); got != 1 {
		t.Errorf("failover ok attempts = %d, want 1", got)
	}
}

func TestRouteExhaustionRelaysLastFailure(t *testing.T) {
	defer noLeaks(t)
	overloaded := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(serve.ErrorPayload{Error: "full", Kind: "overloaded"})
	})
	r, body := twoReplicaRouter(t, overloaded, overloaded, nil)

	rec := post(t, NewHandler(r), body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted post = %d, want the replicas' 429 relayed", rec.Code)
	}
	var ep serve.ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil || ep.Kind != "overloaded" {
		t.Errorf("relayed payload = %s (err %v), want kind overloaded", rec.Body, err)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want the replica's own 1 relayed", rec.Header().Get("Retry-After"))
	}
}

// A replica answer longer than the relay cap must not reach the client
// cut short: the router fails the request with a structured too-large
// error instead, does not fail over (every replica computes the same
// answer) and does not count the replica as dead.
func TestRouteRefusesOversizedAnswer(t *testing.T) {
	defer noLeaks(t)
	var primaryHits, secondaryHits atomic.Int64
	huge := append(okPayload("matrix"), bytes.Repeat([]byte(" "), maxRelayBytes)...)
	r, body := twoReplicaRouter(t,
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			primaryHits.Add(1)
			w.Write(huge)
		}),
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			secondaryHits.Add(1)
			w.Write(okPayload("matrix"))
		}), nil)

	rec := post(t, NewHandler(r), body)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("oversized answer relayed as %d, want 502", rec.Code)
	}
	var ep serve.ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatalf("router answer is not JSON: %v (%d bytes)", err, rec.Body.Len())
	}
	if ep.Kind != "too-large" || !strings.Contains(ep.Error, "relay cap") {
		t.Errorf("error payload = %+v, want kind too-large naming the relay cap", ep)
	}
	if primaryHits.Load() != 1 || secondaryHits.Load() != 0 {
		t.Errorf("hits = %d/%d, want 1/0 (no failover)", primaryHits.Load(), secondaryHits.Load())
	}
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("Retry-After = %q on a permanent verdict", got)
	}
	if got := r.Registry().Counter(obs.MetricFleetAttempts, "replica", r.members[0].addr, "outcome", "fatal").Value(); got != 1 {
		t.Errorf("primary fatal attempts = %d, want 1", got)
	}
	if h := r.members[0].health(); h.State != "alive" || h.FailStreak != 0 {
		t.Errorf("replica that answered: state %s, fail streak %d, want alive and 0", h.State, h.FailStreak)
	}

	// An answer exactly at the cap is still relayed whole.
	exact := append(okPayload("matrix"), bytes.Repeat([]byte(" "), maxRelayBytes-len(okPayload("matrix")))...)
	r2, body2 := twoReplicaRouter(t,
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { w.Write(exact) }),
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { w.Write(okPayload("matrix")) }), nil)
	rec = post(t, NewHandler(r2), body2)
	if rec.Code != http.StatusOK || rec.Body.Len() != maxRelayBytes {
		t.Errorf("answer at the cap: status %d, %d bytes, want 200 and %d bytes", rec.Code, rec.Body.Len(), maxRelayBytes)
	}
}
