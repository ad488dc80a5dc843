package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the edebench binary when a
// workload re-executes itself as the process under test.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(serveMain(os.Args[2:]))
		case "scan":
			os.Exit(scanMain(os.Args[2:]))
		}
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json for one second, untraced
// and traced, and checks that each finishes with no wrong answer and
// prints every metric BENCHMARK.json names, in its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving and scanning stacks")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, metrics := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{spec.EndToEnd, spec.PerLayer} {
			res := runOnce(t, w.Name, trace)
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d", w.Name, trace, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(metrics) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(metrics))
			}
			for _, m := range metrics {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// runOnce runs one workload in-process and parses its last output line.
func runOnce(t *testing.T, workload string, trace int) result {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	code := benchMain([]string{"-workload", workload, "-seed", "7", "-seconds", "1", "-trace", strconv.Itoa(trace), "-root", ".."})
	os.Stdout = stdout
	if code != 0 {
		t.Fatalf("%s trace %d: exit %d", workload, trace, code)
	}
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("%s trace %d: last line %q: %v", workload, trace, last, err)
	}
	return res
}
