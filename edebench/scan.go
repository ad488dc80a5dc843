package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// Scan workload shape.
const (
	// scanDomainsPerSecond sizes the population from -seconds: at the
	// ~10k domains/s of a 2-CPU box at this benchmark's introduction the
	// measurement pass takes about 60% of -seconds, leaving room for the
	// three set-ups. The size is fixed per -seconds, so faster code
	// finishes the same work sooner.
	scanDomainsPerSecond = 6000
	scanWorkers          = 64
	scanSetups           = 3
	// codecSample is how many TLD referrals the codec replay draws.
	codecSample = 2000
)

// scanPass is what the process under test reports for one campaign.
type scanPass struct {
	SetupRuns   []float64          `json:"setup_runs"`  // Generate+Materialize, s
	Materialize []float64          `json:"materialize"` // Materialize alone, s
	WarmupS     float64            `json:"warmup_s"`    // Run's warmup, s
	PassS       float64            `json:"pass_s"`      // measurement pass, s
	Domains     uint64             `json:"domains"`     // shard size
	Done        uint64             `json:"done"`        // domains folded
	Digest      string             `json:"digest"`      // sha256 of the aggregate payload
	Err         string             `json:"err,omitempty"`
	Proc0       procStats          `json:"proc0"`
	Proc1       procStats          `json:"proc1"`
	Regs        map[string]float64 `json:"regs,omitempty"`
	Concurrency float64            `json:"governor_concurrency"`
	Denied      uint64             `json:"tokens_denied"`
	QPR         float64            `json:"queries_per_resolution"`
	CodecNS     []float64          `json:"codec"` // unpack ns, unpack allocs, pack ns, pack allocs, scan ns
}

// scanMain is the process under test for the scan workload: set up the
// population scanSetups times, then run one single-shard campaign (the
// edescan -shards 1 path) and print a scanPass line.
func scanMain(args []string) int {
	fs := flag.NewFlagSet("scan", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "population seed")
	domains := fs.Int("domains", 80000, "population size")
	traced := fs.Bool("trace", false, "attach registries and replay the codec")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	heap := startHeapWatch()
	defer heap.close()
	p, err := scanOnce(heap, *seed, *domains, *traced)
	if err != nil {
		p = &scanPass{Err: err.Error()}
	}
	if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
		return 1
	}
	return 0
}

func scanOnce(heap *heapWatch, seed uint64, domains int, traced bool) (*scanPass, error) {
	p := &scanPass{}
	var wild *population.Wild
	for i := 0; i < scanSetups; i++ {
		t0 := time.Now()
		pop := population.Generate(population.Config{TotalDomains: domains, Seed: seed})
		t1 := time.Now()
		w, err := population.Materialize(pop)
		if err != nil {
			return nil, err
		}
		p.SetupRuns = append(p.SetupRuns, time.Since(t0).Seconds())
		p.Materialize = append(p.Materialize, time.Since(t1).Seconds())
		wild = w
	}
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
		wild.Net.RegisterMetrics(reg)
	}
	runner, err := campaign.New(campaign.Config{
		Shards: 1, Workers: scanWorkers, Profile: resolver.ProfileCloudflare(),
		Governor: &campaign.GovernorConfig{}, Registry: reg,
	}, wild)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the discarded set-up populations are not the scan's heap
	var before map[string]float64
	if reg != nil {
		before = flatten(reg)
	}
	p.Proc0 = heap.read()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var concSum float64
	var concN int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
			}
			if done, _, _ := runner.Progress(); done == 0 {
				continue // still warming up
			}
			if g := runner.Governor(); g != nil {
				concSum += float64(g.Concurrency())
				concN++
			}
		}
	}()
	t0 := time.Now()
	snap, runErr := runner.Run(context.Background())
	wall := time.Since(t0)
	done, total, rate := runner.Progress()
	close(stop)
	wg.Wait()
	p.Proc1 = heap.read()
	if runErr != nil {
		return nil, runErr
	}
	p.Domains, p.Done = total, done
	p.PassS = float64(done) / rate
	p.WarmupS = wall.Seconds() - p.PassS
	sum := sha256.Sum256(snap.AggregateBytes())
	p.Digest = hex.EncodeToString(sum[:16])
	p.Concurrency = concSum / float64(max(concN, 1))
	if l := runner.Limiter(); l != nil { // nil: no qps caps, as edescan's defaults
		p.Denied = l.Denied()
	}
	p.QPR = runner.Scanner.QueriesPerResolution
	if traced {
		after := flatten(reg)
		res := telemetry.NewRegistry()
		runner.Scanner.Resolver.RegisterMetrics(res)
		p.Regs = flatten(res)
		for k, v := range after {
			p.Regs[k] = v - before[k]
		}
		c := scanCodec(wild)
		p.CodecNS = []float64{c.unpackNS, c.unpackAllocs, c.packNS, c.packAllocs, c.scanNS}
	}
	return p, nil
}

// scanCodec replays the codec over queries for a sample of the
// population's names and their TLD servers' referral responses.
func scanCodec(w *population.Wild) codecCost {
	step := max(len(w.Pop.Domains)/codecSample, 1)
	var queries, resps [][]byte
	for i := 0; i < len(w.Pop.Domains); i += step {
		d := w.Pop.Domains[i]
		q := dnswire.NewQuery(uint16(i), d.Name, dnswire.TypeA)
		qw, err := q.Pack()
		if err != nil {
			continue
		}
		r, err := w.Net.Query(context.Background(), d.TLD.Addr, q)
		if err != nil {
			continue
		}
		rw, err := r.Pack()
		if err != nil {
			continue
		}
		queries, resps = append(queries, qw), append(resps, rw)
	}
	return replayCodec(queries, resps)
}

// runScanChild runs the process under test once and reads its scanPass.
func runScanChild(cfg runConfig, seed uint64, domains int, traced bool) (*scanPass, error) {
	args := []string{"scan", "-seed", strconv.FormatUint(seed, 10), "-domains", strconv.Itoa(domains)}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(cfg.self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var p scanPass
	line, readErr := bufio.NewReader(out).ReadBytes('\n')
	waitErr := cmd.Wait()
	if readErr != nil {
		return nil, fmt.Errorf("scan process: %w (exit: %v)", readErr, waitErr)
	}
	if err := json.Unmarshal(line, &p); err != nil {
		return nil, err
	}
	if p.Err != "" {
		return nil, fmt.Errorf("campaign: %s", p.Err)
	}
	return &p, waitErr
}

// populationSeed derives the population seed from the workload seed
// (splitmix64), so neighbouring workload seeds give unrelated populations.
func populationSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func runScan(cfg runConfig) (*result, error) {
	printMeta(cfg)
	seed := populationSeed(cfg.seed)
	domains := int(cfg.seconds * scanDomainsPerSecond)
	if cfg.trace {
		domains /= 2
	}
	p, err := runScanChild(cfg, seed, domains, false)
	if err != nil {
		return nil, err
	}
	skipped := p.Domains - p.Done
	res := &result{Attempted: p.Domains, Failed: skipped, Correct: skipped == 0}
	fmt.Printf("scan: population seed %d, %d domains (%d requested), %d workers, GOMAXPROCS %d\n",
		seed, p.Domains, domains, scanWorkers, p.Proc1.GOMAXPROCS)
	fmt.Printf("scan: %d done, %d skipped, pass %.3f s, warmup %.3f s, aggregate digest %s\n",
		p.Done, skipped, p.PassS, p.WarmupS, p.Digest)
	fmt.Printf("scan: set-up runs (s): %v\n", p.SetupRuns)
	m := metricSet{}
	res.Metrics = m
	if !cfg.trace {
		fmt.Printf("scan: %.0f domains/s; mean governor concurrency %.1f of %d workers\n", float64(p.Done)/p.PassS, p.Concurrency, scanWorkers)
		m.set(endToEnd, "cpu_us_per_op", ratio(float64(p.Proc1.CPUNS-p.Proc0.CPUNS)/1e3, float64(p.Done)))
		m.set(endToEnd, "peak_heap_mb", float64(p.Proc1.HeapPeak)/(1<<20))
		m.set(endToEnd, "setup_s", median(p.SetupRuns)+p.WarmupS)
		m.print(endToEnd)
		return res, nil
	}

	// Traced run: the pass above was untraced; a second process scans the
	// same population with registries attached. It must skip nothing; its
	// aggregate digest is compared with the untraced one and a difference
	// is reported, not failed: the campaign is not yet deterministic under
	// every schedule (one pass in fourteen differed at 60k domains).
	t, err := runScanChild(cfg, seed, domains, true)
	if err != nil {
		return nil, err
	}
	res.Attempted += t.Domains
	res.Failed += t.Domains - t.Done
	res.Correct = res.Failed == 0
	if t.Digest != p.Digest {
		fmt.Printf("scan: DIGESTS DIFFER: traced pass %s, untraced pass %s\n", t.Digest, p.Digest)
	} else {
		fmt.Printf("scan: traced pass reproduces the aggregate digest %s\n", t.Digest)
	}
	untraced := float64(p.Done) / p.PassS
	m.set(perLayer, "campaign.domains_per_s", untraced)
	m.set(perLayer, "trace.overhead", float64(t.Done)/t.PassS/untraced)
	m.set(perLayer, "resolver.queries_per_resolution", t.QPR)
	hit := func(layer string) float64 {
		h := t.Regs["edelab_resolver_cache_events_total{event=hit,layer="+layer+"}"]
		mi := t.Regs["edelab_resolver_cache_events_total{event=miss,layer="+layer+"}"]
		return ratio(h, h+mi)
	}
	m.set(perLayer, "resolver.answer_hit_ratio", hit("answer"))
	m.set(perLayer, "resolver.delegation_hit_ratio", hit("delegation"))
	m.set(perLayer, "resolver.cache_entries", t.Regs["edelab_resolver_cache_entries{layer=answer}"]+t.Regs["edelab_resolver_cache_entries{layer=delegation}"])
	netq := t.Regs["edelab_netsim_queries_total"]
	m.set(perLayer, "netsim.queries_per_op", ratio(netq, float64(t.Done)))
	m.set(perLayer, "campaign.governor_concurrency", t.Concurrency)
	m.set(perLayer, "campaign.tokens_denied", float64(t.Denied))
	m.set(perLayer, "campaign.warmup_s", t.WarmupS)
	m.set(perLayer, "population.materialize_s", median(t.Materialize))
	m.set(perLayer, "runtime.allocs_per_op", ratio(float64(t.Proc1.Allocs-t.Proc0.Allocs), float64(t.Done)))
	m.set(perLayer, "runtime.gc_cpu_share", ratio(t.Proc1.GCCPU-t.Proc0.GCCPU, t.Proc1.TotalCPU-t.Proc0.TotalCPU))
	c := codecCost{unpackNS: t.CodecNS[0], unpackAllocs: t.CodecNS[1], packNS: t.CodecNS[2], packAllocs: t.CodecNS[3], scanNS: t.CodecNS[4]}
	m.set(perLayer, "dnswire.scan_ns", c.scanNS)
	m.set(perLayer, "dnswire.unpack_ns", c.unpackNS)
	m.set(perLayer, "dnswire.unpack_allocs", c.unpackAllocs)
	m.set(perLayer, "dnswire.pack_ns", c.packNS)
	m.set(perLayer, "dnswire.pack_allocs", c.packAllocs)

	// Budget: the CPU per domain against the response codec work its
	// netsim round trips imply; the rest sits in layers the campaign does
	// not expose (resolver walk, dnssec, authorities).
	cpuPerDomain := ratio(float64(t.Proc1.CPUNS-t.Proc0.CPUNS), float64(t.Done))
	codec := ratio(netq, float64(t.Done)) * (c.unpackNS + c.packNS)
	m.set(perLayer, "budget.unattributed_share", 1-ratio(codec, cpuPerDomain))
	fmt.Printf("scan budget: %.2f us CPU per domain, of which %.2f us response codec over %.2f netsim queries\n",
		cpuPerDomain/1e3, codec/1e3, ratio(netq, float64(t.Done)))

	unreached := []string{
		"transport.udp.datagrams_per_batch", "transport.outside_us", "transport.tcp.pipeline_depth", "transport.sheds_per_op",
		"cluster.route_us", "cluster.remote_hop_us", "cluster.remote_share", "cluster.spills_takeovers_per_op",
		"frontend.wire_us", "frontend.slow_us", "frontend.wire_share", "frontend.error_serve_share",
		"frontend.miss_ratio", "frontend.coalesced_per_miss", "frontend.evictions", "frontend.cache_entries",
		"resolver.resolve_us", "dnssec.validate_us", "netsim.rtt_us", "testbed.build_s",
		"loadgen.qps", "loadgen.p50_us", "loadgen.lag_us", "loadgen.p90_us", "loadgen.p99_us",
	}
	for _, n := range unreached {
		m.set(perLayer, n, 0)
	}
	fmt.Printf("not reached by this workload (reported as 0): %v\n", unreached)
	fmt.Println("  resolver.resolve_us, dnssec.validate_us and netsim.rtt_us sit inside the campaign's private resolver; counts above stand in for them")
	m.print(perLayer)
	return res, nil
}
