package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Batch fan-out: POST /v1/batch on the router splits a batch by ring
// ownership so every item lands on the replica whose result cache is
// already warm for it, dispatches the sub-batches concurrently, and
// merges the per-item answers back into request order. Failure handling
// is per sub-batch, not per batch: when a replica dies or straggles
// mid-batch, only its items are re-dispatched to survivors (the
// straggler hedge fires after the router's p99 estimate of sub-batch
// latency), and items no replica could answer come back as synthesized
// item-error entries — the merged array always has exactly one entry
// per requested item.

// maxBatchBytes mirrors the replicas' own batch wire cap: the router
// never accepts a batch it could not forward.
const maxBatchBytes = 8 << 20

// minStragglerDelay floors the p99-derived straggler hedge so a burst
// of microsecond sub-batches cannot talk the router into hedging
// everything instantly.
const minStragglerDelay = 10 * time.Millisecond

// latWindow is a bounded ring of recent durations with an order-stat
// query; the router records every completed sub-batch dispatch and uses
// the 99th percentile as the straggler-hedge delay for later ones.
type latWindow struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

func newLatWindow(n int) *latWindow { return &latWindow{buf: make([]time.Duration, n)} }

func (w *latWindow) observe(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.next == 0 {
		w.full = true
	}
}

// p99 returns the 99th percentile of the window and whether the window
// holds enough samples (a quarter of its capacity) to be trusted.
func (w *latWindow) p99() (time.Duration, bool) {
	w.mu.Lock()
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	sample := make([]time.Duration, n)
	copy(sample, w.buf[:n])
	w.mu.Unlock()
	if n < len(w.buf)/4 {
		return 0, false
	}
	sort.Slice(sample, func(a, b int) bool { return sample[a] < sample[b] })
	idx := (n*99 + 99) / 100
	if idx > n {
		idx = n
	}
	return sample[idx-1], true
}

// stragglerDelay picks the hedged re-dispatch delay for one sub-batch:
// the observed p99 of recent sub-batch dispatches when enough history
// exists, the configured BatchStragglerDelay otherwise, floored so a
// cold window cannot hedge instantly. Negative configuration disables
// the hedge entirely (failover then triggers only on hard failures).
func (r *Router) stragglerDelay() time.Duration {
	if r.opts.BatchStragglerDelay < 0 {
		return -1
	}
	d := r.opts.BatchStragglerDelay
	if p, ok := r.batchLat.p99(); ok {
		d = p
	}
	if d < minStragglerDelay {
		d = minStragglerDelay
	}
	return d
}

// subBatch is the slice of a batch owned by one replica: the global
// indexes of its items plus the routing key that placed them there.
type subBatch struct {
	key     string // routing key (the first owned item's canonical key)
	primary string // owner address at planning time, the fan-out label
	indexes []int  // global item indexes, ascending
}

// handleBatch is the batch proxy path: decode with the replicas' own
// decoder, split by ring ownership, fan out, merge.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	start := r.reg.Now()
	outcome := "ok"
	defer func() {
		r.reg.Histogram(obs.MetricBatchSeconds).Observe(r.reg.Now().Sub(start))
		r.reg.Counter(obs.MetricBatchRequests, "outcome", outcome).Inc()
	}()

	if !r.admit() {
		outcome = "refused-draining"
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "draining", "fleet: router draining")
		return
	}
	defer r.finish()

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBatchBytes))
	if err != nil {
		outcome = "failed"
		writeError(w, http.StatusBadRequest, "bad-request", "fleet: "+err.Error())
		return
	}
	breq, err := serve.DecodeBatchRequest(body)
	if err != nil {
		// Batch-level refusal: malformed JSON, empty or oversized batch.
		// Per-item decode failures are inside breq and stay per-item.
		outcome = "failed"
		writeError(w, http.StatusBadRequest, serve.KindOf(err), err.Error())
		return
	}

	deadline := breq.Deadline
	if deadline <= 0 {
		deadline = r.opts.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(req.Context(), deadline+2*time.Second)
	defer cancel()

	res, err := r.fanOut(ctx, breq)
	if err != nil {
		outcome = "unavailable"
		w.Header().Set("Retry-After", strconv.Itoa(r.unavailableRetryAfter()))
		writeError(w, http.StatusServiceUnavailable, "unavailable",
			"fleet: no alive replicas (all ejected; probes will re-admit recovering ones)")
		return
	}
	outcome = res.Kind
	w.Header().Set("X-SDF-Batch", res.Kind)
	writeJSON(w, http.StatusOK, res)
}

// fanOut splits, dispatches and merges one decoded batch. The only
// error is errNoReplicas (nothing routable at planning time); every
// other failure becomes item entries.
func (r *Router) fanOut(ctx context.Context, breq *serve.BatchRequest) (*serve.BatchResultPayload, error) {
	entries := make([]*serve.BatchItemResult, len(breq.Items))

	// Items that failed the wire decode never travel: the router
	// synthesizes their entries with the replicas' own classification.
	groups := make(map[string]*subBatch)
	routable := 0
	for i, it := range breq.Items {
		if it.Err != nil {
			entries[i] = synthEntry(i, it.Err.Error(), serve.KindOf(it.Err))
			continue
		}
		routable++
		key := it.Req.Key()
		order := r.aliveOrder(key)
		if len(order) == 0 {
			continue // handled below: fleet-dark or fill as unavailable
		}
		owner := order[0].addr
		g := groups[owner]
		if g == nil {
			g = &subBatch{key: key, primary: owner}
			groups[owner] = g
		}
		g.indexes = append(g.indexes, i)
	}
	if routable > 0 && len(groups) == 0 {
		return nil, errNoReplicas
	}

	delay := r.stragglerDelay()
	var wg sync.WaitGroup
	for _, g := range groups {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.dispatchSubBatch(ctx, g, breq, delay, entries)
		}()
	}
	wg.Wait()

	// Merge invariant: exactly one entry per requested item, no matter
	// what the replicas did. Anything still missing is an answer the
	// fleet lost — counted, then honestly synthesized.
	out := &serve.BatchResultPayload{Items: make([]serve.BatchItemResult, len(entries))}
	for i, e := range entries {
		if e == nil {
			r.reg.Counter(obs.MetricBatchLostItems).Inc()
			e = synthEntry(i, "fleet: no replica answered this item", "unavailable")
		}
		out.Items[i] = *e
		if e.Error != nil {
			out.Errors++
		} else {
			out.OK++
		}
	}
	out.Kind = serve.BatchKindOf(out.Items)
	return out, nil
}

// dispatchSubBatch sends one replica's slice of the batch through the
// routeOn failover machine (straggler hedge + backoff failover across
// the survivors) and writes the per-item outcomes into entries. Each
// index slot is owned by exactly one sub-batch, so concurrent writers
// never collide.
func (r *Router) dispatchSubBatch(ctx context.Context, g *subBatch, breq *serve.BatchRequest, delay time.Duration, entries []*serve.BatchItemResult) {
	items := make([]serve.RequestPayload, len(g.indexes))
	for j, gi := range g.indexes {
		items[j] = breq.Items[gi].Payload
	}
	remaining := int64(0)
	if dl, ok := ctx.Deadline(); ok {
		remaining = time.Until(dl).Milliseconds()
	}
	body, err := json.Marshal(serve.BatchRequestPayload{Items: items, DeadlineMS: remaining})
	if err != nil {
		r.fillGroup(g, entries, "fleet: sub-batch encode: "+err.Error(), "internal")
		return
	}

	r.reg.Counter(obs.MetricBatchFanout, "replica", g.primary).Inc()
	start := r.reg.Now()
	out, extra, err := r.routeOn(ctx, "/v1/batch", g.key, delay, body)
	r.batchLat.observe(r.reg.Now().Sub(start))
	if extra > 0 {
		// Every attempt beyond the primary re-dispatched this whole
		// sub-batch off its owner — by straggler hedge or by failover
		// after the owner died mid-batch.
		r.reg.Counter(obs.MetricBatchRedispatchedItems, "replica", g.primary).
			Add(int64(extra) * int64(len(g.indexes)))
		r.reg.Emit("fleet.batch-redispatch", "replica", g.primary,
			"items", strconv.Itoa(len(g.indexes)), "attempts", strconv.Itoa(extra))
	}
	switch {
	case err != nil:
		r.fillGroup(g, entries, "fleet: no alive replicas for sub-batch", "unavailable")
	case out.err != nil:
		r.fillGroup(g, entries, "fleet: "+out.err.Error(), attemptErrorKind(out.err))
	case out.status != http.StatusOK:
		var ep serve.ErrorPayload
		if jerr := json.Unmarshal(out.body, &ep); jerr != nil || ep.Kind == "" {
			ep = serve.ErrorPayload{Error: "fleet: replica answered status " + strconv.Itoa(out.status), Kind: "unavailable"}
		}
		r.fillGroup(g, entries, ep.Error, ep.Kind)
	default:
		r.mergeGroup(g, out.body, entries)
	}
}

// mergeGroup maps one replica's sub-batch answer back to global item
// indexes. A malformed or short answer leaves slots nil; the merge
// invariant in fanOut synthesizes and counts those.
func (r *Router) mergeGroup(g *subBatch, body []byte, entries []*serve.BatchItemResult) {
	var res serve.BatchResultPayload
	if err := json.Unmarshal(body, &res); err != nil {
		r.fillGroup(g, entries, "fleet: sub-batch decode: "+err.Error(), "unavailable")
		return
	}
	for _, it := range res.Items {
		it := it
		if it.Index < 0 || it.Index >= len(g.indexes) {
			continue
		}
		gi := g.indexes[it.Index]
		it.Index = gi
		entries[gi] = &it
	}
}

// fillGroup synthesizes one shared failure across every item of a
// sub-batch.
func (r *Router) fillGroup(g *subBatch, entries []*serve.BatchItemResult, msg, kind string) {
	for _, gi := range g.indexes {
		entries[gi] = synthEntry(gi, msg, kind)
	}
}

// synthEntry builds a router-synthesized item-error entry.
func synthEntry(index int, msg, kind string) *serve.BatchItemResult {
	return &serve.BatchItemResult{
		Index:  index,
		Status: serve.ItemStatusOf(nil, errNoReplicas), // "item-error"
		Error:  &serve.ErrorPayload{Error: msg, Kind: kind},
	}
}
