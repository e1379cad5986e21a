package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// spanHeader carries "parent:req" of the client span to the wrapped
// handler in traced runs. It is deliberately not the server's own
// trace header: a server-traced request is always audited, which
// would change the workload.
const spanHeader = "X-Perfbench-Span"

// lifecycle is the slog handler of the server's observer: it notes
// when each graph's build_ready, build_failed and rebuild_swapped
// events are logged, so set-up is timed at the ready transition
// itself, not at a polling tick.
type lifecycle struct {
	mu   sync.Mutex
	seen map[string][]time.Time // "event graph" → log times
	wake chan struct{}          // closed and replaced on every event
}

func newLifecycle() *lifecycle {
	return &lifecycle{seen: map[string][]time.Time{}, wake: make(chan struct{})}
}

func (l *lifecycle) Enabled(context.Context, slog.Level) bool { return true }
func (l *lifecycle) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *lifecycle) WithGroup(string) slog.Handler            { return l }

func (l *lifecycle) Handle(_ context.Context, r slog.Record) error {
	switch r.Message {
	case "build_ready", "build_failed", "rebuild_swapped":
	default:
		return nil
	}
	var g string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "graph" {
			g = a.Value.String()
			return false
		}
		return true
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	key := r.Message + " " + g
	l.seen[key] = append(l.seen[key], r.Time)
	close(l.wake)
	l.wake = make(chan struct{})
	return nil
}

// await returns the time of the nth event for graph, waiting up to
// timeout for it; a failed build ends the wait with an error.
func (l *lifecycle) await(event, graph string, n int, timeout time.Duration) (time.Time, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		ts := l.seen[event+" "+graph]
		failed := len(l.seen["build_failed "+graph]) > 0
		wake := l.wake
		l.mu.Unlock()
		if len(ts) >= n {
			return ts[n-1], nil
		}
		if failed {
			return time.Time{}, fmt.Errorf("graph %s: build failed", graph)
		}
		select {
		case <-wake:
		case <-deadline.C:
			return time.Time{}, fmt.Errorf("graph %s: no %s #%d within %v", graph, event, n, timeout)
		}
	}
}

// served is an in-process spanhopd (server.Config defaults) behind a
// loopback listener, plus the benchmark's HTTP client.
type served struct {
	b      *bench
	srv    *server.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	life   *lifecycle
	reqs   atomic.Int64
}

func startServer(b *bench, clients int) (*served, error) {
	life := newLifecycle()
	srv := server.New(server.Config{Obs: obs.New(obs.Options{Logger: slog.New(life)})})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{
		b:    b,
		srv:  srv,
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		life: life,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	h := srv.Handler()
	if b.tr != nil {
		h = s.traced(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// traced wraps the server handler in a span parented to the client
// span named in spanHeader.
func (s *served) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(spanHeader)
		parent, req, ok := strings.Cut(hdr, ":")
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		pid, _ := strconv.Atoi(parent)
		rid, _ := strconv.ParseInt(req, 10, 64)
		name := "server.handler"
		if strings.HasSuffix(r.URL.Path, "/edges") {
			name = "server.mutate_handler"
		}
		id := s.b.tr.begin(name, pid, rid)
		next.ServeHTTP(w, r)
		s.b.tr.end(id)
	})
}

func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves Close below to drop the rest
	s.srv.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

// do sends one request and decodes a 200 response into out. With a
// tracer it records the round trip as span root (the handler span
// becomes its child).
func (s *served) do(tr *tracer, root, method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if tr != nil {
		rid := s.reqs.Add(1)
		id := tr.begin(root, -1, rid)
		defer tr.end(id)
		req.Header.Set(spanHeader, strconv.Itoa(id)+":"+strconv.FormatInt(rid, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

type queryResp struct {
	Dist        graph.Dist `json:"dist"`
	Unreachable bool       `json:"unreachable"`
}

// query asks graph id for d(s, t); unreachable pairs read InfDist.
func (s *served) query(tr *tracer, id string, p [2]graph.V) (graph.Dist, error) {
	var r queryResp
	body := fmt.Appendf(nil, `{"s":%d,"t":%d}`, p[0], p[1])
	if err := s.do(tr, "client.query", "POST", "/graphs/"+id+"/query", body, &r); err != nil {
		return 0, err
	}
	if r.Unreachable {
		return graph.InfDist, nil
	}
	return r.Dist, nil
}

type wireUpdate struct {
	Op string  `json:"op"`
	U  graph.V `json:"u"`
	V  graph.V `json:"v"`
	W  graph.W `json:"w,omitempty"`
}

// mutate posts one mutation batch to graph id.
func (s *served) mutate(tr *tracer, id string, us []dynamic.Update) error {
	w := make([]wireUpdate, len(us))
	for i, u := range us {
		w[i] = wireUpdate{Op: u.Op.String(), U: u.U, V: u.V, W: u.W}
	}
	body, err := json.Marshal(map[string]any{"updates": w})
	if err != nil {
		return err
	}
	return s.do(tr, "client.mutate", "POST", "/graphs/"+id+"/edges", body, nil)
}

// graphInfo is the part of GET /graphs/{id} the benchmark reads.
type graphInfo struct {
	HopsetEdges int               `json:"hopset_edges"`
	Instances   int               `json:"instances"`
	BuildStages []exec.StageStats `json:"build_stages"`
}

// register adds graph id from the generator spec and returns its
// build time: from the POST to the ready transition, minus the
// load-graph stage (input generation is not set-up).
func (s *served) register(id, gen string, seed uint64) (time.Duration, error) {
	body, err := json.Marshal(server.GraphSpec{Name: id, Gen: gen, Eps: eps, Seed: seed})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := s.do(nil, "", "POST", "/graphs", body, nil); err != nil {
		return 0, err
	}
	ready, err := s.life.await("build_ready", id, 1, 120*time.Second)
	if err != nil {
		return 0, err
	}
	var info graphInfo
	if err := s.do(nil, "", "GET", "/graphs/"+id, nil, &info); err != nil {
		return 0, err
	}
	load := time.Duration(stageMS(info.BuildStages, "load-graph") * float64(time.Millisecond))
	return ready.Sub(t0) - load, nil
}

// stageMS is a build stage's wall time from exec telemetry (0 when the
// stage never ran).
func stageMS(stages []exec.StageStats, name string) float64 {
	for _, st := range stages {
		if st.Name == name {
			return st.WallMS
		}
	}
	return 0
}

// graphStats is the part of GET /stats the benchmark reads for one
// graph.
type graphStats struct {
	server.StatsSnapshot
	BuildStages []exec.StageStats   `json:"build_stages"`
	Dynamic     *server.DynamicInfo `json:"dynamic"`
	Costs       []obs.CostSnapshot  `json:"costs"`
}

func (g graphStats) cost(op string) obs.CostSnapshot {
	for _, c := range g.Costs {
		if c.Op == op {
			return c
		}
	}
	return obs.CostSnapshot{}
}

func (s *served) stats(id string) (graphStats, error) {
	var resp struct {
		Graphs map[string]graphStats `json:"graphs"`
	}
	if err := s.do(nil, "", "GET", "/stats", nil, &resp); err != nil {
		return graphStats{}, err
	}
	st, ok := resp.Graphs[id]
	if !ok {
		return graphStats{}, fmt.Errorf("graph %s missing from /stats", id)
	}
	return st, nil
}

// quality waits (up to 30 s) for the answer auditor to settle every
// sample it took on graph id, then returns its snapshot.
func (s *served) quality(id string) (obs.AuditGraphSnapshot, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var resp struct {
			Graphs []obs.AuditGraphSnapshot `json:"graphs"`
		}
		if err := s.do(nil, "", "GET", "/debug/quality?graph="+id, nil, &resp); err != nil {
			return obs.AuditGraphSnapshot{}, err
		}
		if len(resp.Graphs) != 1 {
			return obs.AuditGraphSnapshot{}, fmt.Errorf("graph %s missing from /debug/quality", id)
		}
		q := resp.Graphs[0]
		settled := q.Audited + q.Dropped + q.BudgetSkips + q.StaleSkips + q.Errors
		if settled >= q.Sampled || time.Now().After(deadline) {
			return q, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkQuality records the audit verdict as one checked operation:
// zero envelope violations once the audit queue has drained.
func (s *served) checkQuality(p *phase, id string) {
	q, err := s.quality(id)
	if err != nil {
		s.b.fail(p, err)
		return
	}
	b := s.b
	b.check(p, q.Violations == 0, "/debug/quality: %d envelope violations on %s", q.Violations, id)
}

// serverLayers sets the server-side per-layer metrics of graph id from
// the spans, GET /graphs/{id}, and /stats deltas over the traced phase
// (before and after are its opening and closing /stats).
func (s *served) serverLayers(id string, before, after graphStats) error {
	b := s.b
	var info graphInfo
	if err := s.do(nil, "", "GET", "/graphs/"+id, nil, &info); err != nil {
		return err
	}
	req := float64(after.Requests - before.Requests)
	b.set("server.handler_p50_ms", median(b.tr.self("server.handler")), "ms")
	b.set("server.transport_p50_ms", median(b.tr.self("client.query")), "ms")
	b.set("executor.cache_hit_frac", float64(after.CacheHits-before.CacheHits)/req, "ratio")
	if nb := after.Batches - before.Batches; nb > 0 {
		b.set("executor.mean_batch_size", float64(after.BatchedQueries-before.BatchedQueries)/float64(nb), "queries")
	}
	b.set("executor.rejects", float64(after.Rejects-before.Rejects), "count")
	total := 0.0
	for _, st := range after.BuildStages {
		total += st.WallMS
	}
	b.set("registry.build_s", total/1000, "s")
	b.set("hopset.build_s", stageMS(after.BuildStages, "hopset-build")/1000, "s")
	b.set("wscale.decompose_s", stageMS(after.BuildStages, "wscale-decompose")/1000, "s")
	b.set("wscale.instances", float64(info.Instances), "count")
	b.set("hopset.edges", float64(info.HopsetEdges), "count")
	if after.Dynamic != nil && before.Dynamic != nil {
		b.set("registry.rebuilds", float64(after.Dynamic.Rebuilds-before.Dynamic.Rebuilds), "count")
	}
	b.set("registry.rebuild_s", after.cost(obs.OpRebuild).WallSeconds-before.cost(obs.OpRebuild).WallSeconds, "s")
	b.set("obs.query_cpu_ms_per_query", 1000*(after.cost(obs.OpQuery).CPUSeconds-before.cost(obs.OpQuery).CPUSeconds)/req, "ms")
	b.set("obs.audit_cpu_ms_per_query", 1000*(after.cost(obs.OpAudit).CPUSeconds-before.cost(obs.OpAudit).CPUSeconds)/req, "ms")
	b.set("obs.audit_samples", float64(after.cost(obs.OpAudit).Count-before.cost(obs.OpAudit).Count), "count")
	return nil
}
