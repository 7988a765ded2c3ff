package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/daemon"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/puller"
)

var allWorkloads = []string{"suite-run", "ingest-flood", "pgo-loop"}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.3, trace: trace, out: t.TempDir(), tiny: true}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and expects it correct with every metric of its mode.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range allWorkloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				res, r, err := execute(tinyConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, r.failures)
				}
				names := endToEnd
				if trace {
					names = perLayer
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(names))
				}
				for _, n := range names {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s missing", n)
					case m.Unit != units[n]:
						t.Errorf("metric %s has unit %q, want %q", n, m.Unit, units[n])
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the
// repository root lists exactly the metrics this benchmark prints, with
// the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []metric
		names  []string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.names) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.listed), len(c.names))
		}
		for _, m := range c.listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s) is not printed with that unit", m.Name, m.Unit)
			}
		}
	}
}

func jessPrepared(t *testing.T) *bytecode.Program {
	t.Helper()
	prog, err := mj.Compile(bench.ByName(pgoProgram).Source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCountsRepeatForASeed checks that every workload's deterministic
// counts are identical for one seed and differ for another.
func TestCountsRepeatForASeed(t *testing.T) {
	passes := map[string]func(seed int64, r *report) error{
		"suite-run": func(seed int64, r *report) error {
			ps := suitePrograms(seed, true)
			if _, _, _, err := prepare(ps, true, nil, 0); err != nil {
				return err
			}
			if err := reference(ps); err != nil {
				return err
			}
			return countPass(ps, seed, r)
		},
		"ingest-flood": func(seed int64, r *report) error {
			builds, err := ingestPool(config{seed: seed, tiny: true}, nil, 0)
			if err != nil {
				return err
			}
			return ingestCounts(r, builds)
		},
		"pgo-loop": func(seed int64, r *report) error {
			_, _, args := pgoSources(seed)
			return pgoCounts(config{seed: seed, tiny: true}, r, jessPrepared(t), args[0])
		},
	}
	for _, w := range allWorkloads {
		t.Run(w, func(t *testing.T) {
			digest := func(seed int64) string {
				r := newReport(nil)
				if err := passes[w](seed, r); err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 {
					t.Fatalf("count pass failed: %v", r.failures)
				}
				return countsLine(r.counts)
			}
			a, b := digest(5), digest(5)
			if a != b {
				t.Errorf("seed 5 gave different counts:\n%s\n%s", a, b)
			}
			if c := digest(6); c == a {
				t.Errorf("seeds 5 and 6 gave the same counts: %s", a)
			}
		})
	}
}

// TestSuiteChecksFire injects a wrong result, a wrong printed output
// and a wrong mincover graph, and expects each check to catch it.
func TestSuiteChecksFire(t *testing.T) {
	ps := suitePrograms(3, true)[:1]
	if _, _, _, err := prepare(ps, true, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := reference(ps); err != nil {
		t.Fatal(err)
	}
	r := newReport(nil)
	if err := countPass(ps, 3, r); err != nil || r.failed != 0 {
		t.Fatalf("count pass: %v %v", err, r.failures)
	}
	p := ps[0]
	res, err := runOnce(p, srcMincover, 3, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOutput(p, res); err != nil {
		t.Fatalf("clean run fails the output check: %v", err)
	}
	if err := checkMincover(p, res.graph); err != nil {
		t.Fatalf("clean run fails the mincover check: %v", err)
	}

	wrongRet := *p
	wrongRet.refRet++
	if checkOutput(&wrongRet, res) == nil {
		t.Error("output check missed a wrong return value")
	}
	wrongOut := *p
	wrongOut.refOut = append(append([]int64(nil), p.refOut...), 7)
	if checkOutput(&wrongOut, res) == nil {
		t.Error("output check missed a wrong printed output")
	}
	g := res.graph.Clone()
	g.AddSample(g.Edges()[0], 1)
	if checkMincover(p, g) == nil {
		t.Error("mincover check missed a graph one sample off")
	}
}

// TestConservationCheckFires pushes a delta to a daemon and expects the
// conservation check to pass on the true merge and fail on a merge one
// sample off.
func TestConservationCheckFires(t *testing.T) {
	d, err := startDaemon(daemon.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	key := api.ProgramKey{Program: "prog", Version: "00ff00ff00ff00ff"}
	g := profile.NewDCG()
	g.AddSample(profile.Edge{Caller: 0, Site: 1, Callee: 2}, 3)
	g.AddSample(profile.Edge{Caller: 1, Site: 2, Callee: 3}, 5)
	client := &api.Client{BaseURL: d.url, HTTPClient: hc}
	if _, err := client.PushDCGKeyed("t", 1, key, g); err != nil {
		t.Fatal(err)
	}
	r := newReport(nil)
	checkBuilds(r, hc, d.url, map[api.ProgramKey]*profile.DCG{key: g})
	if r.failed != 0 {
		t.Fatalf("true merge fails the check: %v", r.failures)
	}
	off := g.Clone()
	off.AddSample(profile.Edge{Caller: 0, Site: 1, Callee: 2}, 1)
	r = newReport(nil)
	checkBuilds(r, hc, d.url, map[api.ProgramKey]*profile.DCG{key: off})
	if r.failed != 1 {
		t.Errorf("check missed a build one sample off: %d failures", r.failed)
	}
}

// planServer serves one fixed plan for every plan request.
func planServer(p *plan.Plan) *httptest.Server {
	body := p.Encode()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("ETag", fmt.Sprintf("%q", fmt.Sprintf("%d-%x", p.Epoch, p.Hash)))
		w.Write(body)
	}))
}

// TestPullChecksFire runs the puller against a server that serves a
// plan for another build, then one that serves a plan which changes the
// program's output, and expects the reject and kill checks to fire.
func TestPullChecksFire(t *testing.T) {
	prog := jessPrepared(t)
	size := bench.ByName(pgoProgram).Small / 16
	pull := func(p *plan.Plan) puller.Stats {
		p.Hash = p.ContentHash()
		srv := planServer(p)
		defer srv.Close()
		st, err := puller.Run(prog, puller.Options{
			URL: srv.URL, Program: pgoProgram, Size: size, Rounds: 2, Every: 1, Iters: 1,
			Verify: true, Opts: inline.DefaultOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	r := newReport(nil)
	pullChecks(r, []puller.Stats{pull(&plan.Plan{Program: pgoProgram, Version: prog.Version(), Policy: "new-linear", Epoch: 1})})
	if r.failed != 0 {
		t.Fatalf("an empty plan fails the checks: %v", r.failures)
	}

	r = newReport(nil)
	pullChecks(r, []puller.Stats{pull(&plan.Plan{Program: pgoProgram, Version: "0123456789abcdef", Policy: "new-linear", Epoch: 1})})
	if r.failed != 1 {
		t.Errorf("a plan for another build: %d failures, want 1", r.failed)
	}

	// Null-guarded inlining of one rule subclass's matches() at the
	// call sites that dispatch over every rule changes what jess
	// computes, so the candidate fails verification.
	var bad []plan.Decision
	for _, m := range prog.Methods {
		for _, cs := range inline.ScanCalls(prog, m) {
			if cs.Op != bytecode.OpCallVirtual {
				continue
			}
			for _, impl := range inline.Implementations(prog, cs.Slot) {
				if impl.Name == "RuleWide.matches" {
					bad = append(bad, plan.Decision{Site: cs.Site, Callee: impl.ID, Kind: plan.KindNullGuard})
				}
			}
		}
	}
	if len(bad) == 0 {
		t.Fatal("no call site dispatches to RuleWide.matches")
	}
	r = newReport(nil)
	pullChecks(r, []puller.Stats{pull(&plan.Plan{Program: pgoProgram, Version: prog.Version(), Policy: "new-linear", Epoch: 1, Decisions: bad})})
	if r.failed != 1 {
		t.Errorf("a plan that changes the output: %d failures, want 1", r.failed)
	}
}
