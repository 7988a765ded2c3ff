package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/daemon"
	"gocbs/internal/profile"
)

// daemonHandle is one in-process cbsd serving on loopback.
type daemonHandle struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startDaemon runs daemon.Run on a free loopback port and returns once
// it serves.
func startDaemon(cfg daemon.Config) (*daemonHandle, error) {
	ready := make(chan string, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.Ready = ready
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout, cfg.WriteTimeout = 10*time.Second, 10*time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- daemon.Run(ctx, cfg) }()
	select {
	case addr := <-ready:
		return &daemonHandle{url: "http://" + addr, cancel: cancel, done: done}, nil
	case err := <-done:
		cancel()
		return nil, fmt.Errorf("daemon did not start: %w", err)
	case <-time.After(30 * time.Second):
		cancel()
		<-done
		return nil, fmt.Errorf("daemon did not become ready")
	}
}

// stop shuts the daemon down gracefully and waits until it has.
func (d *daemonHandle) stop() error {
	if d == nil {
		return nil
	}
	d.cancel()
	return <-d.done
}

// freshDir returns an empty directory under base for one daemon's state.
func freshDir(base, name string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// newHTTPClient returns a keep-alive client of its own, so one
// workload's connections never outlive it.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   api.DefaultTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute},
	}
}

// fetchBuild reads one (program, version) graph from a daemon.
func fetchBuild(hc *http.Client, base string, key api.ProgramKey) (*profile.DCG, error) {
	u := base + api.PathSnapshot + "?program=" + url.QueryEscape(key.Program) + "&version=" + url.QueryEscape(key.Version)
	resp, err := hc.Get(u)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", key, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot %s: %w", key, api.ReadHTTPError(resp))
	}
	g, err := profile.ReadDCG(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", key, err)
	}
	return g, nil
}

// sameGraph reports how got differs from want, edge by edge. Weights
// are whole numbers, so the sums are exact in any merge order.
func sameGraph(got, want *profile.DCG) error {
	if got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("%d edges, want %d", got.NumEdges(), want.NumEdges())
	}
	for _, e := range want.Edges() {
		if g, w := got.Weight(e), want.Weight(e); g != w {
			return fmt.Errorf("edge %v weighs %v, want %v", e, g, w)
		}
	}
	return nil
}

// checkBuilds compares each build's graph on the daemon at base with
// the benchmark's own merge of the deltas the daemon acknowledged.
func checkBuilds(r *report, hc *http.Client, base string, want map[api.ProgramKey]*profile.DCG) {
	for key, w := range want {
		got, err := fetchBuild(hc, base, key)
		if err == nil {
			err = sameGraph(got, w)
		}
		if err != nil {
			err = fmt.Errorf("weight conservation, %s: %w", key, err)
		}
		r.op(err)
	}
}

// stateBase is where a workload's daemons keep their state dirs.
func stateBase(cfg config) string { return filepath.Join(cfg.out, "state") }
