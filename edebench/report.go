package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// budgetTolerance is how far the traced run's per-layer means, weighted by
// their calls per answered query and added to transport.outside_us, may
// stray from the mean client round trip before the run is flagged.
const budgetTolerance = 0.05

// quantile returns the q-quantile of xs (sorted in place), by the nearest
// rank.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowRates lists the correct-answer rate of every qps window of the
// given closed-loop phases.
func windowRates(ps ...*phaseStats) []float64 {
	var rates []float64
	for _, p := range ps {
		for _, n := range p.windows {
			rates = append(rates, float64(n)/(float64(p.winNS)/1e9))
		}
	}
	return rates
}

// metricSet collects a result's metrics, checking names and units against the specs.
type metricSet map[string]metric

func (m metricSet) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.name == name {
			m[name] = metric{Value: v, Unit: s.unit}
			return
		}
	}
	panic("edebench: unknown metric " + name)
}

// print writes the metrics as aligned text lines.
func (m metricSet) print(specs []metricSpec) {
	for _, s := range specs {
		fmt.Printf("  %-36s %14.4f %s\n", s.name, m[s.name].Value, s.unit)
	}
}

// delta reads counter differences over one or more spans between
// server stats lines.
type delta [][2]*serverStats

// reg sums the change of series key over every registry whose name has
// one of the prefixes (none matches all).
func (d delta) reg(key string, regs ...string) float64 {
	var v float64
	for _, p := range d {
		for name, series := range p[1].Regs {
			if matchAny(name, regs) {
				v += series[key] - p[0].Regs[name][key]
			}
		}
	}
	return v
}

// final sums series key's value over every registry at the last stats
// line.
func (d delta) final(key string) float64 {
	var v float64
	for _, series := range d[len(d)-1][1].Regs {
		v += series[key]
	}
	return v
}

func matchAny(name string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func (d delta) timer(name string) (calls, ns float64) {
	for _, p := range d {
		calls += float64(p[1].Timers[name].Calls - p[0].Timers[name].Calls)
		ns += float64(p[1].Timers[name].NS - p[0].Timers[name].NS)
	}
	return calls, ns
}

func (d delta) proc(f func(procStats) float64) float64 {
	var v float64
	for _, p := range d {
		v += f(p[1].Proc) - f(p[0].Proc)
	}
	return v
}

// heapPeak is the highest heap peak the spans' closing stats lines report
// (each stats line reports the peak since the one before).
func (d delta) heapPeak() float64 {
	var peak uint64
	for _, p := range d {
		peak = max(peak, p[1].Proc.HeapPeak)
	}
	return float64(peak)
}

func merged(ps []*phaseStats) *phaseStats {
	out := &phaseStats{}
	for _, p := range ps {
		out.merge(p)
	}
	return out
}

// report turns a serving run into the result line.
func (r *servingRun) report() *result {
	w := r.cfg.w
	fmt.Printf("workload %s: %d connections over %s, %d rounds of closed loop (window %d) then open loop (%.0f/s)\n",
		w.name, r.conns, r.network, rounds, closedWindow, w.rate)
	sat, fixed := merged(r.sat), merged(r.fixed)
	all := merged([]*phaseStats{sat, fixed})
	res := &result{Attempted: all.sent, Failed: all.failed(), Correct: all.wrong == 0}
	fmt.Printf("closed loop: %d sent, %d correct, %d wrong, %d shed, %d timeouts, %d errors, %d retries\n",
		sat.sent, sat.ok, sat.wrong, sat.shed, sat.timeouts, sat.errs, sat.retries)
	fmt.Printf("open loop:   %d sent, %d correct, %d wrong, %d shed, %d timeouts, %d errors, %d retries, %d latency samples\n",
		fixed.sent, fixed.ok, fixed.wrong, fixed.shed, fixed.timeouts, fixed.errs, fixed.retries, len(fixed.lat))
	fmt.Printf("wrong answers: %d; fail_ratio %.6f (%d of %d)\n", all.wrong, ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, s := range all.samples {
		fmt.Printf("  wrong answer: %s\n", s)
	}
	fmt.Printf("server GOMAXPROCS %d\n", r.whole[0][1].Proc.GOMAXPROCS)

	fmt.Printf("open-loop latency over %d samples: p50 %.1f us, p90 %.1f us, p99 %.1f us, p99.9 %.1f us\n",
		len(fixed.lat), quantile(fixed.lat, 0.50)/1e3, quantile(fixed.lat, 0.90)/1e3, quantile(fixed.lat, 0.99)/1e3, quantile(fixed.lat, 0.999)/1e3)

	m := metricSet{}
	res.Metrics = m
	if !r.cfg.trace {
		rates := windowRates(r.sat...)
		fmt.Printf("closed-loop qps per %v window: %.0f\n", qpsWindow, rates)
		fmt.Printf("server CPU us per answer per window: %.3f\n", r.cpuPerOp)
		fmt.Printf("set-up runs (s): %.4f\n", r.setups)
		fmt.Printf("closed-loop qps (median window) %.0f; open-loop p50 %.1f us\n", median(rates), quantile(fixed.lat, 0.50)/1e3)
		m.set(endToEnd, "cpu_us_per_op", median(r.cpuPerOp))
		phases := append(append(delta{}, r.satD...), r.fixedD...)
		m.set(endToEnd, "peak_heap_mb", phases.heapPeak()/(1<<20))
		m.set(endToEnd, "setup_s", median(r.setups))
		m.print(endToEnd)
		return res
	}

	// Traced run. Counts and ratios cover every phase; times and the
	// latency budget cover the fixed-rate phases, where the round trip is
	// not dominated by the closed loop's own queueing.
	tr := w.transport()
	whole := r.whole
	served := whole.reg("edelab_frontdoor_queries_total{transport="+tr+"}", "main")
	m.set(perLayer, "transport.udp.datagrams_per_batch", ratio(
		r.satD.reg("edelab_frontdoor_udp_batch_datagrams_total"), r.satD.reg("edelab_frontdoor_udp_batch_rounds_total")))
	m.set(perLayer, "transport.tcp.pipeline_depth", ratio(
		r.satD.reg("edelab_frontdoor_pipeline_depth_sum", "main"), r.satD.reg("edelab_frontdoor_pipeline_depth", "main")))
	var sheds float64
	for _, t := range []string{"udp", "tcp", "dot", "doh"} {
		sheds += whole.reg("edelab_frontdoor_sheds_total{transport=" + t + "}")
	}
	m.set(perLayer, "transport.sheds_per_op", ratio(sheds, served))

	// Per-layer self times over the fixed-rate phases.
	fd := r.fixedD
	nFixed := fd.reg("edelab_frontdoor_queries_total{transport="+tr+"}", "main")
	hC, hNS := fd.timer(tHandler)
	whC, whNS := fd.timer(tWireHit)
	wmC, wmNS := fd.timer(tWireMiss)
	upC, upNS := fd.timer(tUpstream)
	rrC, rrNS := fd.timer(tRouterRemote)
	rhC, rhNS := fd.timer(tRemoteHandler)
	rwhC, rwhNS := fd.timer(tRemoteWireHit)
	rwmC, rwmNS := fd.timer(tRemoteWireMiss)
	ruC, ruNS := fd.timer(tRemoteUpstream)
	_, valNS := fd.timer("validate")
	inside := hNS + whNS + wmNS + rrNS
	var parts []budgetPart
	if w.cluster {
		routeNS := hNS + whNS + wmNS - upNS
		hopNS := rrNS - rhNS - rwhNS - rwmNS
		feNS := rhNS + rwhNS + rwmNS - ruNS
		m.set(perLayer, "cluster.route_us", ratio(routeNS, hC+whC+wmC)/1e3)
		m.set(perLayer, "cluster.remote_hop_us", ratio(hopNS, rrC)/1e3)
		m.set(perLayer, "frontend.wire_us", ratio(rwhNS+rwmNS, rwhC+rwmC)/1e3)
		m.set(perLayer, "frontend.slow_us", ratio(rhNS-ruNS, rhC)/1e3)
		parts = append(parts, budgetPart{"cluster.route", routeNS}, budgetPart{"cluster.remote_hop", hopNS}, budgetPart{"frontend (remote replica)", feNS})
		var routed, remote float64
		for k := range whole[0][1].Regs["main"] {
			if strings.HasPrefix(k, "edelab_cluster_routed_total{") {
				routed += whole.reg(k, "main")
				if strings.Contains(k, "replica="+remoteID) {
					remote += whole.reg(k, "main")
				}
			}
		}
		m.set(perLayer, "cluster.remote_share", ratio(remote, routed))
		m.set(perLayer, "cluster.spills_takeovers_per_op", ratio(
			whole.reg("edelab_cluster_spills_total", "main")+whole.reg("edelab_cluster_takeovers_total", "main"), served))
	} else {
		m.set(perLayer, "frontend.wire_us", ratio(whNS+wmNS, whC+wmC)/1e3)
		m.set(perLayer, "frontend.slow_us", ratio(hNS-upNS, hC)/1e3)
		parts = append(parts, budgetPart{"frontend", hNS + whNS + wmNS - upNS})
	}
	resolveNS := upNS + ruNS - valNS
	m.set(perLayer, "resolver.resolve_us", ratio(resolveNS, upC+ruC)/1e3)
	m.set(perLayer, "dnssec.validate_us", ratio(valNS, upC+ruC)/1e3)
	parts = append(parts, budgetPart{"resolver", resolveNS}, budgetPart{"dnssec", valNS})

	rtt := ratio(float64(fixed.rttSum), float64(fixed.ok))
	outside := rtt - ratio(inside, nFixed)
	m.set(perLayer, "transport.outside_us", outside/1e3)
	attributed := outside
	fmt.Printf("latency budget over the fixed-rate phase (%0.f answered, mean round trip %.2f us):\n", nFixed, rtt/1e3)
	fmt.Printf("  %-28s %10.3f us/query\n", "transport.outside", outside/1e3)
	// The layers are weighted per answer the client counted, the outside
	// share per query the server counted: a gap between the two counts
	// (late or duplicate answers, retransmissions) shows as unattributed.
	for _, p := range parts {
		perQuery := ratio(p.ns, float64(fixed.ok))
		fmt.Printf("  %-28s %10.3f us/query\n", p.name, perQuery/1e3)
		attributed += perQuery
	}
	unattributed := ratio(rtt-attributed, rtt)
	m.set(perLayer, "budget.unattributed_share", unattributed)
	fmt.Printf("  unattributed share %.4f (tolerance %.2f): %s\n", unattributed, budgetTolerance, verdict(math.Abs(unattributed) <= budgetTolerance))

	// Frontend and resolver counters, summed over every frontend and
	// resolver registry.
	ev := func(e string) float64 { return whole.reg("edelab_frontend_cache_events_total{event=" + e + "}") }
	m.set(perLayer, "frontend.wire_share", ratio(ev("wire_hit"), served))
	m.set(perLayer, "frontend.error_serve_share", ratio(ev("error_serve"), served))
	m.set(perLayer, "frontend.miss_ratio", ratio(ev("miss"), served))
	m.set(perLayer, "frontend.coalesced_per_miss", ratio(ev("coalesced_wait"), ev("miss")))
	m.set(perLayer, "frontend.evictions", ev("eviction"))
	m.set(perLayer, "frontend.cache_entries", whole.final("edelab_frontend_cache_entries"))
	rev := func(layer, e string) float64 {
		return whole.reg("edelab_resolver_cache_events_total{event=" + e + ",layer=" + layer + "}")
	}
	m.set(perLayer, "resolver.queries_per_resolution", ratio(whole.reg("edelab_resolver_queries_total"), whole.reg("edelab_resolver_resolutions_total")))
	m.set(perLayer, "resolver.answer_hit_ratio", ratio(rev("answer", "hit"), rev("answer", "hit")+rev("answer", "miss")))
	m.set(perLayer, "resolver.delegation_hit_ratio", ratio(rev("delegation", "hit"), rev("delegation", "hit")+rev("delegation", "miss")))
	m.set(perLayer, "resolver.cache_entries", whole.final("edelab_resolver_cache_entries{layer=answer}")+whole.final("edelab_resolver_cache_entries{layer=delegation}"))
	m.set(perLayer, "netsim.queries_per_op", ratio(whole.reg("edelab_netsim_queries_total"), served))
	m.set(perLayer, "netsim.rtt_us", ratio(whole.reg("edelab_resolver_rtt_seconds_sum"), whole.reg("edelab_resolver_rtt_seconds"))*1e6)
	m.set(perLayer, "testbed.build_s", r.buildS)
	m.set(perLayer, "runtime.allocs_per_op", ratio(r.satD.proc(func(p procStats) float64 { return float64(p.Allocs) }), float64(sat.ok)))
	m.set(perLayer, "runtime.gc_cpu_share", ratio(r.satD.proc(func(p procStats) float64 { return p.GCCPU }), r.satD.proc(func(p procStats) float64 { return p.TotalCPU })))
	m.set(perLayer, "loadgen.qps", median(windowRates(r.base)))
	m.set(perLayer, "loadgen.p50_us", quantile(fixed.lat, 0.50)/1e3)
	m.set(perLayer, "loadgen.lag_us", meanNS(fixed.lag)/1e3)
	m.set(perLayer, "loadgen.p90_us", quantile(fixed.lat, 0.90)/1e3)
	m.set(perLayer, "loadgen.p99_us", quantile(fixed.lat, 0.99)/1e3)
	fmt.Printf("loadgen lag: mean %.2f us, p99 %.2f us over %d sends\n", meanNS(fixed.lag)/1e3, quantile(fixed.lag, 0.99)/1e3, len(fixed.lag))
	traced, untraced := median(windowRates(r.sat...)), median(windowRates(r.base))
	m.set(perLayer, "trace.overhead", ratio(traced, untraced))
	fmt.Printf("closed-loop qps: traced %.0f, untraced %.0f\n", traced, untraced)

	queries := make([][]byte, len(r.tmpls))
	for i, t := range r.tmpls {
		queries[i] = t.wire
	}
	rep := replayCodec(queries, r.resps)
	m.set(perLayer, "dnswire.scan_ns", rep.scanNS)
	m.set(perLayer, "dnswire.unpack_ns", rep.unpackNS)
	m.set(perLayer, "dnswire.unpack_allocs", rep.unpackAllocs)
	m.set(perLayer, "dnswire.pack_ns", rep.packNS)
	m.set(perLayer, "dnswire.pack_allocs", rep.packAllocs)

	unreached := []string{"campaign.domains_per_s", "campaign.governor_concurrency", "campaign.tokens_denied", "campaign.warmup_s", "population.materialize_s"}
	if !w.cluster {
		unreached = append(unreached, "cluster.route_us", "cluster.remote_hop_us", "cluster.remote_share", "cluster.spills_takeovers_per_op", "transport.tcp.pipeline_depth")
	}
	for _, n := range unreached {
		m.set(perLayer, n, 0)
	}
	fmt.Printf("not reached by this workload (reported as 0): %s\n", strings.Join(unreached, ", "))
	m.print(perLayer)
	return res
}

// transport is the front-door transport label the workload's clients use.
func (w *workload) transport() string {
	if w.cluster {
		return "tcp"
	}
	return "udp"
}

type budgetPart struct {
	name string
	ns   float64
}

func verdict(ok bool) string {
	if ok {
		return "closes"
	}
	return "DOES NOT CLOSE"
}

func meanNS(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
