package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// serveConfig pins the end-to-end serving benchmark: a spanhopd-shaped
// HTTP server (internal/server on a loopback listener) driven by
// loadgen-shaped concurrent clients.
type serveConfig struct {
	rows, cols  int32
	concurrency int
	requests    int
}

// serveBench measures one full load run per iteration and reports
// QPS plus client-side latency quantiles in microseconds — the same
// numbers loadgen prints, produced in-process so the suite needs no
// subprocess orchestration.
func serveBench(b *testing.B, cfg serveConfig) {
	b.Helper()
	srv := server.New(server.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	spec := fmt.Sprintf("grid:side=%d,w=uniform,maxw=50", cfg.rows)
	if cfg.rows != cfg.cols {
		b.Fatalf("serveBench uses the square grid spec; rows=%d cols=%d", cfg.rows, cfg.cols)
	}
	if _, err := srv.Registry().Add(server.GraphSpec{Name: "bench", Gen: spec, Eps: 0.25, Seed: suiteSeed}); err != nil {
		b.Fatal(err)
	}
	entry, ok := srv.Registry().Get("bench")
	if !ok {
		b.Fatal("registered graph vanished")
	}
	deadline := time.Now().Add(2 * time.Minute)
	for entry.Info().State != server.StateReady {
		if entry.Info().State == server.StateFailed {
			b.Fatalf("bench graph build failed: %s", entry.Info().Error)
		}
		if time.Now().After(deadline) {
			b.Fatal("bench graph never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	n := entry.Info().N

	client := &http.Client{Timeout: 30 * time.Second}
	url := base + "/graphs/bench/query"
	var qps, p50, p95, p99 float64
	for i := 0; i < b.N; i++ {
		lats := make([][]time.Duration, cfg.concurrency)
		start := time.Now()
		var wg sync.WaitGroup
		var firstErr error
		var errMu sync.Mutex
		for w := 0; w < cfg.concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				mix := workload.UniformMix(n, suiteSeed+uint64(w)*0x9e3779b9+uint64(i))
				per := cfg.requests / cfg.concurrency
				lats[w] = make([]time.Duration, 0, per)
				for q := 0; q < per; q++ {
					p := mix.Next()
					body, err := json.Marshal(map[string]any{"s": p[0], "t": p[1]})
					if err != nil {
						panic(err)
					}
					q0 := time.Now()
					resp, err := client.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					if resp.StatusCode != http.StatusOK {
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("query status %d", resp.StatusCode)
						}
						errMu.Unlock()
						resp.Body.Close()
						return
					}
					resp.Body.Close()
					lats[w] = append(lats[w], time.Since(q0))
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if firstErr != nil {
			b.Fatal(firstErr)
		}
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(x, y int) bool { return all[x] < all[y] })
		quant := func(p float64) float64 {
			if len(all) == 0 {
				return 0
			}
			idx := int(p * float64(len(all)))
			if idx >= len(all) {
				idx = len(all) - 1
			}
			return float64(all[idx].Microseconds())
		}
		qps = float64(len(all)) / elapsed.Seconds()
		p50, p95, p99 = quant(0.50), quant(0.95), quant(0.99)
	}
	b.ReportMetric(qps, "qps")
	b.ReportMetric(p50, "p50_us")
	b.ReportMetric(p95, "p95_us")
	b.ReportMetric(p99, "p99_us")
}
