// Command edebench is the repository's end-to-end benchmark. It runs one
// named workload against the real serving or scanning stack, checks every
// answer, and prints its metrics as one JSON line on the last line of
// standard output:
//
//	edebench -workload udp-hit -seed 1 -seconds 10 -trace 0
//
// Serving workloads start the code under test as a child process
// ("edebench serve"), assembled from the same public constructors that
// cmd/edeserver wires, and load it over loopback from this process. The
// scan workload runs a single-shard campaign in a child process
// ("edebench scan"). -trace 1 wraps the program's public interfaces with
// timers and prints the per-layer metrics instead of the end-to-end ones.
// README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(serveMain(os.Args[2:]))
		case "scan":
			os.Exit(scanMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// runConfig is one benchmark invocation.
type runConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	root    string // checkout root: golden file and source digest
	self    string // this binary, re-executed as the process under test
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("edebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: udp-hit, udp-ede, tcp-cluster or scan")
	seed := fs.Uint64("seed", 1, "workload seed: qname order, unique labels and population all derive from it")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := fs.String("root", ".", "repository checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "edebench: unknown -workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "edebench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "edebench: %v\n", err)
		return 1
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, self: self}

	start := time.Now()
	var res *result
	if w.scan {
		res, err = runScan(cfg)
	} else {
		res, err = runServing(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "edebench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("wall time %.1f s\n", time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
