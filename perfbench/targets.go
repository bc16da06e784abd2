package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serverOptions is the server configuration of the cold workloads: the
// defaults, except that the brownout p99 target sits far above any
// exact answer's latency. A cold mp3 playback hedge stall (about 4s)
// would otherwise brown the server out and turn the following exact
// answers into bounded ones, so the exact path would no longer be what
// is measured.
func serverOptions(reg *obs.Registry) serve.Options {
	return serve.Options{DegradeTargetP99: time.Hour, Obs: reg}
}

// replicaOptions configures the fleet replicas: serverOptions racing
// the matrix and state-space engines only. Fleet replicas compute
// nothing in a timed phase (every request is a cache hit, whose key does
// not depend on the engine set); they compute only while set-up loads
// the working set, where the HSDF racer's uncancellable MCM on mp3
// playback stalls about half the warm-ups by 4s and would make setup_s
// bimodal. paper-cold measures that stall.
func replicaOptions(reg *obs.Registry) serve.Options {
	o := serverOptions(reg)
	o.Engines = []analysis.Method{analysis.Matrix, analysis.StateSpace}
	return o
}

// answer is one graph's or model's served result, reduced to what the
// reference check and the workload sanity check read.
type answer struct {
	name        string // reference key
	period      string
	unbounded   bool
	verified    bool
	degradation string
	cached      bool
	deduped     bool
	nodes       int // SADF automaton nodes
	err         string
}

// target serves one prepared request and reports the answers in it.
type target interface {
	// prepare builds request number seq for in outside the timed
	// region; do serves it and returns the latency: the server call, or
	// the HTTP exchange up to the last byte of the response (decoding the
	// answers is client work and not counted).
	prepare(in *input, seq int64) any
	do(in *input, req any) (time.Duration, []answer)
	close()
}

// coldTarget is one in-process serve.Server. Every request is renamed
// (graph or model name plus the request number), which changes its
// cache key, so every request is a cache miss.
type coldTarget struct{ s *serve.Server }

func newColdTarget(reg *obs.Registry) *coldTarget {
	return &coldTarget{s: serve.New(serverOptions(reg))}
}

func (t *coldTarget) prepare(in *input, seq int64) any {
	name := fmt.Sprintf("%s#%d", in.name, seq)
	switch in.kind {
	case kindGraph:
		g := in.graph.Clone()
		g.SetName(name)
		return &serve.Request{Graph: g, Method: "hedged"}
	case kindSADF:
		m := *in.model
		m.Name = name
		return &serve.SADFRequest{Model: &m}
	}
	panic("perfbench: cold workloads send no batches")
}

func (t *coldTarget) do(in *input, req any) (time.Duration, []answer) {
	ctx := context.Background()
	t0 := time.Now()
	switch r := req.(type) {
	case *serve.Request:
		res, err := t.s.Analyze(ctx, r)
		return time.Since(t0), []answer{graphAnswer(in.name, res, err)}
	case *serve.SADFRequest:
		res, err := t.s.AnalyzeSADF(ctx, r)
		return time.Since(t0), []answer{sadfAnswer(in.name, res, err)}
	}
	panic("perfbench: unknown request type")
}

func (t *coldTarget) close() { t.s.Close() }

func graphAnswer(name string, res *serve.ResultPayload, err error) answer {
	if err != nil {
		return answer{name: name, err: err.Error()}
	}
	return answer{name: name, period: res.Period, unbounded: res.Unbounded, verified: res.Verified,
		degradation: res.Degradation, cached: res.Cached, deduped: res.Deduped}
}

func sadfAnswer(name string, res *serve.SADFResultPayload, err error) answer {
	if err != nil {
		return answer{name: name, err: err.Error()}
	}
	return answer{name: name, period: res.Period, unbounded: res.Unbounded, verified: res.Verified,
		degradation: res.Degradation, cached: res.Cached, deduped: res.Deduped, nodes: res.AutomatonNodes}
}

func batchAnswers(in *input, res *serve.BatchResultPayload, err error) []answer {
	out := make([]answer, len(in.items))
	for i, g := range in.items {
		out[i] = answer{name: g.Name(), err: "no entry for this item"}
	}
	if err != nil {
		for i := range out {
			out[i].err = err.Error()
		}
		return out
	}
	for _, it := range res.Items {
		if it.Index < 0 || it.Index >= len(out) {
			continue
		}
		switch {
		case it.Result != nil:
			out[it.Index] = graphAnswer(in.items[it.Index].Name(), it.Result, nil)
		case it.Error != nil:
			out[it.Index].err = it.Status + ": " + it.Error.Error
		}
	}
	return out
}

// fleetTarget is the full wire path: an httptest fleet router in front
// of two httptest serve replicas, all in this process. The router's
// health probes are not started (every replica is presumed alive), so
// no background traffic competes with the measured requests.
type fleetTarget struct {
	servers  []*serve.Server
	replicas []*httptest.Server
	router   *fleet.Router
	front    *httptest.Server
	client   *http.Client
	// bufs recycles response buffers, so reading a multi-megabyte SADF
	// answer does not add client garbage to the allocation figures.
	bufs sync.Pool
}

// newFleetTarget builds the fleet. withObs gives every replica and the
// router a registry of its own.
func newFleetTarget(withObs bool) *fleetTarget {
	t := &fleetTarget{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	t.bufs.New = func() any { return new(bytes.Buffer) }
	var urls []string
	for i := 0; i < 2; i++ {
		var reg *obs.Registry
		if withObs {
			reg = obs.New()
		}
		s := serve.New(replicaOptions(reg))
		hs := httptest.NewServer(serve.NewHandler(s))
		t.servers = append(t.servers, s)
		t.replicas = append(t.replicas, hs)
		urls = append(urls, hs.URL)
	}
	var reg *obs.Registry
	if withObs {
		reg = obs.New()
	}
	t.router = fleet.New(fleet.Options{Replicas: urls, Obs: reg})
	t.front = httptest.NewServer(fleet.NewHandler(t.router))
	return t
}

func (t *fleetTarget) prepare(in *input, seq int64) any { return in.body }

func (t *fleetTarget) do(in *input, req any) (time.Duration, []answer) {
	return t.post(t.front.URL, in)
}

// wireAnswer is the part of a /v1/throughput or /v1/sadf answer the
// checks read; the two payloads share these JSON names. Decoding only
// these fields keeps the client from materialising certificates.
type wireAnswer struct {
	Period         string `json:"period"`
	Unbounded      bool   `json:"unbounded"`
	Verified       bool   `json:"verified"`
	Degradation    string `json:"degradation"`
	Cached         bool   `json:"cached"`
	Deduped        bool   `json:"deduped"`
	AutomatonNodes int    `json:"automaton_nodes"`
}

func (w *wireAnswer) answer(name string) answer {
	return answer{name: name, period: w.Period, unbounded: w.Unbounded, verified: w.Verified,
		degradation: w.Degradation, cached: w.Cached, deduped: w.Deduped, nodes: w.AutomatonNodes}
}

// post sends in's wire request to the server at base and decodes the
// answers; the latency ends when the whole response has been read.
func (t *fleetTarget) post(base string, in *input) (time.Duration, []answer) {
	t0 := time.Now()
	resp, err := t.client.Post(base+in.kind.path(), "application/json", bytes.NewReader(in.body))
	if err != nil {
		return time.Since(t0), failAll(in, err)
	}
	buf := t.bufs.Get().(*bytes.Buffer)
	defer t.bufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, failAll(in, err)
	}
	data := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return lat, failAll(in, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data))))
	}
	if in.kind == kindBatch {
		var res struct {
			Items []struct {
				Index  int                 `json:"index"`
				Status string              `json:"status"`
				Result *wireAnswer         `json:"result"`
				Error  *serve.ErrorPayload `json:"error"`
			} `json:"items"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return lat, failAll(in, err)
		}
		out := make([]answer, len(in.items))
		for i, g := range in.items {
			out[i] = answer{name: g.Name(), err: "no entry for this item"}
		}
		for _, it := range res.Items {
			if it.Index < 0 || it.Index >= len(out) {
				continue
			}
			switch {
			case it.Result != nil:
				out[it.Index] = it.Result.answer(in.items[it.Index].Name())
			case it.Error != nil:
				out[it.Index].err = it.Status + ": " + it.Error.Error
			}
		}
		return lat, out
	}
	var w wireAnswer
	if err := json.Unmarshal(data, &w); err != nil {
		return lat, failAll(in, err)
	}
	return lat, []answer{w.answer(in.name)}
}

func failAll(in *input, err error) []answer {
	if in.kind == kindBatch {
		return batchAnswers(in, nil, err)
	}
	return []answer{{name: in.name, err: err.Error()}}
}

// warm sends every input once to each replica directly, the replicas in
// parallel, so both caches hold the whole working set and a hedged or
// failed-over router attempt is a cache hit too. Each warm-up answer is
// checked against the reference.
func (t *fleetTarget) warm(ins []*input, ref reference) error {
	errs := make([]error, len(t.replicas))
	var wg sync.WaitGroup
	for i, hs := range t.replicas {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			for _, in := range ins {
				_, answers := t.post(base, in)
				for _, a := range answers {
					if why := ref.mismatch(a); why != "" {
						errs[i] = fmt.Errorf("warm-up of %s on replica %d: %s", a.name, i, why)
						return
					}
				}
			}
		}(i, hs.URL)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *fleetTarget) close() {
	t.front.Close()
	t.router.Close()
	for i, hs := range t.replicas {
		hs.Close()
		t.servers[i].Close()
	}
	t.client.CloseIdleConnections()
}

// mismatch returns why a served answer fails the reference check, or ""
// when it is the verified exact reference answer.
func (ref reference) mismatch(a answer) string {
	want, ok := ref[a.name]
	switch {
	case a.err != "":
		return "error: " + a.err
	case !ok:
		return "no reference answer"
	case !a.verified:
		return "answer not verified"
	case a.degradation != "":
		return "degraded answer (" + a.degradation + ")"
	case a.unbounded != want.Unbounded || a.period != want.Period:
		return fmt.Sprintf("period %q (unbounded %v), reference %q (unbounded %v)", a.period, a.unbounded, want.Period, want.Unbounded)
	case want.AutomatonNodes != 0 && a.nodes != want.AutomatonNodes:
		return fmt.Sprintf("automaton of %d nodes, reference %d", a.nodes, want.AutomatonNodes)
	}
	return ""
}
