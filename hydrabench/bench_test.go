package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// hydraBin is the hydra binary the served self-tests drive, built once.
var hydraBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hydrabench-test-")
	if err != nil {
		panic(err)
	}
	hydraBin = filepath.Join(dir, "hydra")
	build := exec.Command("go", "build", "-o", hydraBin, "repro/cmd/hydra")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building hydra: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var workloads = []string{"serve_hot", "serve_cold"}

func shortConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.shorten()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 0.3
	cfg.trace = trace
	cfg.hydraBin = hydraBin
	cfg.workDir = t.TempDir()
	return cfg
}

// finalLine runs cfg and returns the decoded JSON result line.
func finalLine(t *testing.T, cfg config) (*result, map[string]any) {
	t.Helper()
	var report bytes.Buffer
	res, err := run(cfg, &report)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, report.String())
	}
	var out bytes.Buffer
	if err := res.writeJSON(&out); err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var line map[string]any
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("%s: result line %q: %v", cfg.workload, out.String(), err)
	}
	return res, line
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestEveryMetricEmitted runs every workload untraced and traced at small
// scale: each run must be correct and print exactly its mode's metrics,
// each a number with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, line := finalLine(t, shortConfig(t, wl, trace))
			if !res.correct {
				t.Errorf("%s trace=%v: not correct: %v", wl, trace, res.problems)
			}
			if line["attempted"].(float64) < 1 || line["failed"].(float64) != 0 {
				t.Errorf("%s trace=%v: attempted %v failed %v", wl, trace, line["attempted"], line["failed"])
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			metrics := line["metrics"].(map[string]any)
			var got []string
			for name, v := range metrics {
				got = append(got, name)
				if unit := v.(map[string]any)["unit"]; unit != metricUnits[name] {
					t.Errorf("%s: metric %s has unit %v, want %s", wl, name, unit, metricUnits[name])
				}
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(names(want), ",") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", wl, trace, got, names(want))
			}
			if !trace {
				for _, d := range endToEnd {
					if v := metrics[d.name].(map[string]any)["value"].(float64); v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, v)
					}
				}
			}
		}
	}
}

// TestAlteredReferenceIsWrong alters one reference answer: every request
// for that query must then count as a wrong answer and fail the run.
func TestAlteredReferenceIsWrong(t *testing.T) {
	cfg := shortConfig(t, "serve_hot", false)
	cfg.corruptRef = 5
	res, line := finalLine(t, cfg)
	if res.correct || line["correct"] != false {
		t.Fatalf("run with an altered reference answer reported correct")
	}
	wrong := res.m["ops.wrong"].value
	if wrong < 1 || line["failed"].(float64) < wrong {
		t.Errorf("wrong answers %v, failed %v: want every wrong answer counted as failed", wrong, line["failed"])
	}
	if res.m["ops.ok"].value+wrong != res.m["ops.attempted"].value {
		t.Errorf("ok %v + wrong %v != attempted %v", res.m["ops.ok"].value, wrong, res.m["ops.attempted"].value)
	}
}

func TestAnswerMatches(t *testing.T) {
	ref := answer{count: 3, rows: 1, sample: [][]int64{{1, 2}}}
	if !ref.matches(reply{Count: 3, Rows: 1, Sample: [][]int64{{1, 2}}}) {
		t.Fatal("identical answer rejected")
	}
	for _, r := range []reply{
		{Count: 4, Rows: 1, Sample: [][]int64{{1, 2}}},
		{Count: 3, Rows: 2, Sample: [][]int64{{1, 2}}},
		{Count: 3, Rows: 1, Sample: [][]int64{{1, 3}}},
		{Count: 3, Rows: 1, Sample: [][]int64{{1, 2}, {1, 2}}},
		{Count: 3, Rows: 1},
	} {
		if ref.matches(r) {
			t.Errorf("altered answer %+v accepted", r)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json's workload and metric lists
// in step with what the benchmark emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
