package main

import (
	"context"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// timer accumulates the calls into one wrapped public function and the
// wall time they took.
type timer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *timer) since(t0 time.Time) {
	t.calls.Add(1)
	t.ns.Add(int64(time.Since(t0)))
}

// timerSnap is a timer's value in a stats line.
type timerSnap struct {
	Calls int64 `json:"calls"`
	NS    int64 `json:"ns"`
}

// probes are the traced run's timers, keyed by the public call they wrap.
// With tracing off every wrap* method returns its argument untouched, so
// the untraced run executes no benchmark code on the serving path.
type probes struct {
	on     bool
	timers map[string]*timer
	// validateNS sums the self time of the resolver's "validate DNSKEY"
	// spans over every traced upstream exchange.
	validateNS atomic.Int64
}

// Timer names, shared by the process under test and the report.
const (
	tHandler        = "handler"         // transport Config.Handler (frontend or router)
	tWireHit        = "wire_hit"        // transport Config.Wire, answered
	tWireMiss       = "wire_miss"       // transport Config.Wire, fell back
	tRouterRemote   = "router_remote"   // router Handler calls whose owner is the remote replica
	tUpstream       = "upstream"        // forwarder.Upstream of local resolvers
	tRemoteHandler  = "remote_handler"  // remote replica's Config.Handler
	tRemoteWireHit  = "remote_wire_hit" // remote replica's Config.Wire, answered
	tRemoteWireMiss = "remote_wire_miss"
	tRemoteUpstream = "remote_upstream"
)

func newProbes(on bool) *probes {
	p := &probes{on: on, timers: map[string]*timer{}}
	for _, n := range []string{tHandler, tWireHit, tWireMiss, tRouterRemote, tUpstream,
		tRemoteHandler, tRemoteWireHit, tRemoteWireMiss, tRemoteUpstream} {
		p.timers[n] = &timer{}
	}
	return p
}

func (p *probes) snapshot() map[string]timerSnap {
	out := make(map[string]timerSnap, len(p.timers)+1)
	for n, t := range p.timers {
		out[n] = timerSnap{Calls: t.calls.Load(), NS: t.ns.Load()}
	}
	out["validate"] = timerSnap{NS: p.validateNS.Load()}
	return out
}

type timedHandler struct {
	h netsim.Handler
	t *timer
}

func (x timedHandler) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	t0 := time.Now()
	resp, err := x.h.HandleDNS(ctx, q)
	x.t.since(t0)
	return resp, err
}

func (p *probes) handler(h netsim.Handler, name string) netsim.Handler {
	if !p.on {
		return h
	}
	return timedHandler{h: h, t: p.timers[name]}
}

// routerHandler also books the calls whose ring owner is the remote
// replica, so the remote hop can be separated from local routing.
type routerHandler struct {
	cl            *cluster.Cluster
	remoteID      string
	local, remote *timer
}

func (x routerHandler) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	t0 := time.Now()
	resp, err := x.cl.HandleDNS(ctx, q)
	if len(q.Question) == 1 && x.cl.OwnerID(q.Question[0].Name, q.Question[0].Type, q.CheckingDisabled) == x.remoteID {
		x.remote.since(t0)
	} else {
		x.local.since(t0)
	}
	return resp, err
}

func (p *probes) router(cl *cluster.Cluster, remoteID string) netsim.Handler {
	if !p.on {
		return cl
	}
	return routerHandler{cl: cl, remoteID: remoteID, local: p.timers[tHandler], remote: p.timers[tRouterRemote]}
}

type timedWire struct {
	w         transport.WireServer
	hit, miss *timer
}

func (x timedWire) ServeWire(q dnswire.WireQuery, limit int, dst []byte) ([]byte, bool) {
	t0 := time.Now()
	out, ok := x.w.ServeWire(q, limit, dst)
	if ok {
		x.hit.since(t0)
	} else {
		x.miss.since(t0)
	}
	return out, ok
}

func (p *probes) wire(w transport.WireServer, hit, miss string) transport.WireServer {
	if !p.on {
		return w
	}
	return timedWire{w: w, hit: p.timers[hit], miss: p.timers[miss]}
}

// timedUpstream times each resolution the frontend asks for and threads a
// telemetry trace through it, so the resolver's own validate spans give
// the DNSSEC share of the miss.
type timedUpstream struct {
	up forwarder.ResolverUpstream
	t  *timer
	p  *probes
}

func (x timedUpstream) Exchange(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	return x.run(ctx, func(ctx context.Context) (*dnswire.Message, error) {
		return x.up.Exchange(ctx, qname, qtype)
	})
}

func (x timedUpstream) ExchangeWithOptions(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, opts forwarder.Options) (*dnswire.Message, error) {
	return x.run(ctx, func(ctx context.Context) (*dnswire.Message, error) {
		return x.up.ExchangeWithOptions(ctx, qname, qtype, opts)
	})
}

func (x timedUpstream) run(ctx context.Context, f func(context.Context) (*dnswire.Message, error)) (*dnswire.Message, error) {
	ctx, tr := telemetry.StartTrace(ctx, "edebench upstream")
	t0 := time.Now()
	resp, err := f(ctx)
	x.t.since(t0)
	tr.Root().End()
	x.p.validateNS.Add(int64(validateSelf(tr.Snapshot().Root)))
	return resp, err
}

func (p *probes) upstream(up forwarder.ResolverUpstream, name string) forwarder.Upstream {
	if !p.on {
		return up
	}
	return timedUpstream{up: up, t: p.timers[name], p: p}
}

// validateSelf sums the self time (duration minus child spans) of every
// DNSKEY validation span in the tree.
func validateSelf(s telemetry.SpanSnapshot) time.Duration {
	var d time.Duration
	if strings.HasPrefix(s.Name, "validate ") {
		d = s.Duration
		for _, c := range s.Children {
			d -= c.Duration
		}
	}
	for _, c := range s.Children {
		d += validateSelf(c)
	}
	return d
}

// flatten renders a registry as series key → value; histograms add a
// "_sum" series next to their observation count. Keys are the family name
// plus its sorted labels, e.g. edelab_frontdoor_queries_total{transport=udp}.
func flatten(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			k := seriesKey(fam.Name, s.Labels)
			out[k] = s.Value
			if fam.Type == "histogram" {
				out[seriesKey(fam.Name+"_sum", s.Labels)] = s.Sum
			}
		}
	}
	return out
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	kv := make([]string, 0, len(labels))
	for k, v := range labels {
		kv = append(kv, k+"="+v)
	}
	sort.Strings(kv)
	return name + "{" + strings.Join(kv, ",") + "}"
}
