package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// remoteID names the cluster replica that sits behind its own UDP front
// door, as an edeserver -join process would.
const remoteID = "r2"

// readyLine is the first line the process under test prints: where its
// listeners are and how long building the testbed took.
type readyLine struct {
	UDP    string  `json:"udp,omitempty"`
	TCP    string  `json:"tcp,omitempty"`
	BuildS float64 `json:"build_s"`
}

// serverStats is one reply to the "stats" control command.
type serverStats struct {
	Proc   procStats                     `json:"proc"`
	Timers map[string]timerSnap          `json:"timers"`
	Regs   map[string]map[string]float64 `json:"regs"`
}

// serveMain is the process under test for the serving workloads. It
// assembles the stack from the public constructors cmd/edeserver uses,
// with edeserver's defaults, prints a readyLine, then answers control
// commands on stdin: "stats" prints a serverStats line, "cpu" the CPU
// time in ns, "quit" or EOF exits.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	clustered := fs.Bool("cluster", false, "3-replica router on TCP instead of one frontend on UDP")
	traced := fs.Bool("trace", false, "wrap the public interfaces with timers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	heap := startHeapWatch()
	defer heap.close()
	p := newProbes(*traced)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ready readyLine
	regs := map[string]*telemetry.Registry{}
	var err error
	if *clustered {
		err = buildCluster(ctx, p, regs, &ready)
	} else {
		err = buildSingle(ctx, p, regs, &ready)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "edebench serve: %v\n", err)
		return 1
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(ready); err != nil {
		return 1
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "stats":
			st := serverStats{Proc: heap.read(), Timers: p.snapshot(), Regs: map[string]map[string]float64{}}
			for n, r := range regs {
				st.Regs[n] = flatten(r)
			}
			if err := out.Encode(st); err != nil {
				return 1
			}
		case "cpu":
			if err := out.Encode(cpuNS()); err != nil {
				return 1
			}
		case "quit":
			return 0
		}
	}
	return 0
}

// frontendConfig is edeserver's -mode resolver serving configuration at
// its flag defaults.
func frontendConfig() frontend.Config {
	return frontend.Config{
		Capacity:     1 << 16,
		MaxInflight:  512,
		QueryTimeout: 5 * time.Second,
		StaleWindow:  24 * time.Hour,
	}
}

// buildTestbed times testbed.Build into ready.BuildS.
func buildTestbed(ready *readyLine) (*testbed.Testbed, error) {
	t0 := time.Now()
	tb, err := testbed.Build()
	ready.BuildS += time.Since(t0).Seconds()
	return tb, err
}

// serveUDP runs one UDP front door on a loopback port until ctx ends.
func serveUDP(ctx context.Context, cfg transport.Config) (string, error) {
	conns, err := transport.ListenUDPReusePort(ctx, "127.0.0.1:0", 1)
	if err != nil {
		return "", err
	}
	srv := transport.NewServer(cfg)
	go serveOrDie(ctx, func() error { return srv.ServeUDP(ctx, conns[0]) })
	return conns[0].LocalAddr().String(), nil
}

// serveOrDie runs a listener for the life of the process; a listener that
// fails ends the process, which the load generator sees as a failed run.
func serveOrDie(ctx context.Context, serve func() error) {
	if err := serve(); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "edebench serve: %v\n", err)
		os.Exit(1)
	}
}

// buildSingle is edeserver -mode resolver: one frontend over a Cloudflare
// resolver, behind the UDP front door with the wire fast path.
func buildSingle(ctx context.Context, p *probes, regs map[string]*telemetry.Registry, ready *readyLine) error {
	tb, err := buildTestbed(ready)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	tb.Net.RegisterMetrics(reg)
	res := tb.NewResolver(resolver.ProfileCloudflare())
	res.RegisterMetrics(reg)
	fe := frontend.New(p.upstream(forwarder.ResolverUpstream{R: res}, tUpstream), frontendConfig())
	fe.RegisterMetrics(reg)
	regs["main"] = reg
	ready.UDP, err = serveUDP(ctx, transport.Config{
		Handler:  p.handler(fe, tHandler),
		Wire:     p.wire(fe, tWireHit, tWireMiss),
		Registry: reg,
	})
	return err
}

// buildCluster is edeserver -cluster 2 plus one -join replica: two local
// replicas behind the consistent-hash router, a third replica with its own
// testbed behind its own UDP front door, and the router's TCP listener.
func buildCluster(ctx context.Context, p *probes, regs map[string]*telemetry.Registry, ready *readyLine) error {
	prof := resolver.ProfileCloudflare()
	fcfg := frontendConfig()

	rtb, err := buildTestbed(ready)
	if err != nil {
		return err
	}
	rreg := telemetry.NewRegistry()
	rtb.Net.RegisterMetrics(rreg)
	rres := rtb.NewResolver(prof)
	rres.RegisterMetrics(rreg)
	rfe := frontend.New(p.upstream(forwarder.ResolverUpstream{R: rres}, tRemoteUpstream), fcfg)
	rfe.RegisterMetrics(rreg)
	regs["remote"] = rreg
	remoteAddr, err := serveUDP(ctx, transport.Config{
		Handler:  p.handler(rfe, tRemoteHandler),
		Wire:     p.wire(rfe, tRemoteWireHit, tRemoteWireMiss),
		Registry: rreg,
	})
	if err != nil {
		return err
	}

	tb, err := buildTestbed(ready)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	tb.Net.RegisterMetrics(reg)
	cl := cluster.New(cluster.Config{Seed: 20230515, Frontend: fcfg})
	for i := 0; i < 2; i++ {
		res := tb.NewResolver(prof)
		rep, err := cl.AddLocal(fmt.Sprintf("r%d", i), p.upstream(forwarder.ResolverUpstream{R: res}, tUpstream))
		if err != nil {
			return err
		}
		res.RegisterMetrics(rep.Registry())
		regs[rep.ID()] = rep.Registry()
	}
	if err := cl.AddRemote(remoteID, remoteAddr); err != nil {
		return err
	}
	cl.RegisterMetrics(reg)
	regs["main"] = reg

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := transport.NewServer(transport.Config{
		Handler:  p.router(cl, remoteID),
		Wire:     p.wire(cl, tWireHit, tWireMiss),
		Registry: reg,
	})
	go serveOrDie(ctx, func() error { return srv.ServeTCP(ctx, l) })
	ready.TCP = l.Addr().String()
	return nil
}
