package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// maxRequestBytes mirrors the replicas' own wire cap: the router never
// accepts a request it could not forward.
const maxRequestBytes = 1 << 20

// maxSADFRequestBytes mirrors the replicas' sadf wire cap (a model
// carries several scenario graphs).
const maxSADFRequestBytes = 4 << 20

// Health is the router's self-report, served by /healthz.
type Health struct {
	Draining bool           `json:"draining"`
	Alive    int            `json:"alive"`
	Replicas []MemberHealth `json:"replicas"`
}

// NewHandler wraps a Router in its HTTP surface:
//
//	POST /v1/throughput — decode + validate the request, route it by
//	     its canonical hash, relay the winning replica's answer
//	     verbatim (plus an X-SDF-Replica header naming it).
//	POST /v1/batch — decode the batch, split it by ring ownership so
//	     each item lands on its cache-warm replica, fan the sub-batches
//	     out, re-dispatch the items of failed or straggling replicas to
//	     survivors, and merge the per-item answers back into request
//	     order (always one entry per item; never a batch-wide 5xx for
//	     item failures).
//	GET  /healthz — router health: per-replica membership state.
//	GET  /readyz — 200 while admitting with at least one alive
//	     replica, 503 otherwise (load balancers stop routing before a
//	     SIGTERM drain completes, and while the whole fleet is dark).
//	GET  /metrics — Prometheus text exposition of the router registry;
//	     404 when the router was built without one.
func NewHandler(r *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/throughput", r.handleThroughput)
	mux.HandleFunc("POST /v1/sadf", r.handleSADF)
	mux.HandleFunc("POST /v1/batch", r.handleBatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, Health{
			Draining: r.Draining(),
			Alive:    r.aliveCount(),
			Replicas: r.MembersHealth(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		type readiness struct {
			Ready    bool   `json:"ready"`
			Reason   string `json:"reason,omitempty"`
			Alive    int    `json:"alive"`
			Replicas int    `json:"replicas"`
		}
		alive := r.aliveCount()
		switch {
		case r.Draining():
			w.Header().Set("Retry-After", "5")
			writeJSON(w, http.StatusServiceUnavailable,
				readiness{Reason: "draining", Alive: alive, Replicas: len(r.members)})
		case alive == 0:
			w.Header().Set("Retry-After", strconv.Itoa(r.unavailableRetryAfter()))
			writeJSON(w, http.StatusServiceUnavailable,
				readiness{Reason: "no alive replicas", Alive: 0, Replicas: len(r.members)})
		default:
			writeJSON(w, http.StatusOK, readiness{Ready: true, Alive: alive, Replicas: len(r.members)})
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		if r.reg == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.reg.WritePrometheus(w)
	})
	return mux
}

// handleThroughput is the proxy path: validate, hash, route, relay.
func (r *Router) handleThroughput(w http.ResponseWriter, req *http.Request) {
	start := r.reg.Now()
	outcome := "ok"
	defer func() {
		r.reg.Histogram(obs.MetricFleetRequestSeconds, "outcome", outcome).
			Observe(r.reg.Now().Sub(start))
	}()

	if !r.admit() {
		outcome = "unavailable"
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "draining", "fleet: router draining")
		return
	}
	defer r.finish()

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBytes))
	if err != nil {
		outcome = "error"
		writeError(w, http.StatusBadRequest, "bad-request", "fleet: "+err.Error())
		return
	}
	// Decode with the replicas' own decoder: malformed requests bounce
	// here instead of consuming fleet attempts, and the decoded request
	// yields the canonical cache key the ring routes on.
	decoded, err := serve.DecodeRequest(body)
	if err != nil {
		outcome = "error"
		writeError(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}

	// The end-to-end budget: the request's own analysis deadline (or
	// the router default) plus transport slack, carved per attempt
	// inside route.
	budget := decoded.Timeout
	if budget <= 0 {
		budget = r.opts.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(req.Context(), budget+2*time.Second)
	defer cancel()

	out, err := r.route(ctx, decoded.Key(), body)
	switch {
	case errors.Is(err, errNoReplicas):
		outcome = "unavailable"
		w.Header().Set("Retry-After", strconv.Itoa(r.unavailableRetryAfter()))
		writeError(w, http.StatusServiceUnavailable, "unavailable",
			"fleet: no alive replicas (all ejected; probes will re-admit recovering ones)")
		return
	case err != nil:
		outcome = "error"
		writeError(w, http.StatusBadGateway, "unavailable", "fleet: "+err.Error())
		return
	case out.err != nil:
		outcome = r.writeAttemptError(w, out.err)
		return
	}
	// A completed exchange — success or a replica's own error payload —
	// is relayed verbatim: the replica's status, kind and Retry-After
	// survive the hop so clients see one consistent wire contract.
	if !out.ok() {
		outcome = "error"
	}
	if ra := out.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := out.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if dg := out.header.Get("X-SDF-Degradation"); dg != "" {
		// The brownout marker survives the hop: the client learns its
		// answer was degraded even through the fleet.
		w.Header().Set("X-SDF-Degradation", dg)
	}
	w.Header().Set("X-SDF-Replica", out.m.addr)
	w.WriteHeader(out.status)
	_, _ = w.Write(out.body)
}

// handleSADF proxies the scenario-aware analysis path with the same
// discipline as handleThroughput: decode with the replicas' own decoder
// (malformed models bounce at the router), route by the model's
// canonical key so identical models land on their cache-warm replica,
// and relay the winning answer — certificate, degradation marker and
// all — verbatim.
func (r *Router) handleSADF(w http.ResponseWriter, req *http.Request) {
	start := r.reg.Now()
	outcome := "ok"
	defer func() {
		r.reg.Histogram(obs.MetricFleetRequestSeconds, "outcome", outcome).
			Observe(r.reg.Now().Sub(start))
	}()

	if !r.admit() {
		outcome = "unavailable"
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "draining", "fleet: router draining")
		return
	}
	defer r.finish()

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxSADFRequestBytes))
	if err != nil {
		outcome = "error"
		writeError(w, http.StatusBadRequest, "bad-request", "fleet: "+err.Error())
		return
	}
	decoded, err := serve.DecodeSADFRequest(body)
	if err != nil {
		outcome = "error"
		kind := serve.SADFKindOf(err)
		writeError(w, http.StatusBadRequest, kind, err.Error())
		return
	}

	budget := decoded.Timeout
	if budget <= 0 {
		budget = r.opts.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(req.Context(), budget+2*time.Second)
	defer cancel()

	out, _, err := r.routeOn(ctx, "/v1/sadf", decoded.Key(), r.opts.HedgeDelay, body)
	switch {
	case errors.Is(err, errNoReplicas):
		outcome = "unavailable"
		w.Header().Set("Retry-After", strconv.Itoa(r.unavailableRetryAfter()))
		writeError(w, http.StatusServiceUnavailable, "unavailable",
			"fleet: no alive replicas (all ejected; probes will re-admit recovering ones)")
		return
	case err != nil:
		outcome = "error"
		writeError(w, http.StatusBadGateway, "unavailable", "fleet: "+err.Error())
		return
	case out.err != nil:
		outcome = r.writeAttemptError(w, out.err)
		return
	}
	if !out.ok() {
		outcome = "error"
	}
	if ra := out.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := out.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if dg := out.header.Get("X-SDF-Degradation"); dg != "" {
		w.Header().Set("X-SDF-Degradation", dg)
	}
	w.Header().Set("X-SDF-Replica", out.m.addr)
	w.WriteHeader(out.status)
	_, _ = w.Write(out.body)
}

// unavailableRetryAfter sizes the Retry-After hint for a fleet with no
// routable replicas: roughly one probation cycle — how long a
// recovering replica needs before probes re-admit it — never less than
// a second.
func (r *Router) unavailableRetryAfter() int {
	d := r.opts.ProbeInterval * time.Duration(r.opts.ReadmitThreshold+1)
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeAttemptError answers a request whose routing ended in an
// attempt-level failure and returns the request outcome label. An
// answer over the relay cap is a permanent verdict on the request; any
// other failure means the fleet as a whole could not be reached, and
// the client is told when to retry.
func (r *Router) writeAttemptError(w http.ResponseWriter, err error) string {
	kind := attemptErrorKind(err)
	if kind != "unavailable" {
		writeError(w, http.StatusBadGateway, kind, "fleet: "+err.Error())
		return "error"
	}
	w.Header().Set("Retry-After", strconv.Itoa(r.unavailableRetryAfter()))
	writeError(w, http.StatusBadGateway, kind, "fleet: "+err.Error())
	return "unavailable"
}

// attemptErrorKind is the wire kind of an attempt-level failure.
func attemptErrorKind(err error) string {
	if errors.Is(err, errResponseTooLarge) {
		return "too-large"
	}
	return "unavailable"
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, serve.ErrorPayload{Error: msg, Kind: kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
