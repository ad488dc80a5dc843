package main

// workload is one named input set the benchmark runs; BENCHMARK.json
// records why each exists.
type workload struct {
	name string
	scan bool // campaign scan rather than a serving stack
	// cluster serves TCP through the 3-replica router instead of UDP into
	// one frontend.
	cluster bool
	// labels are the testbed cases whose query names make the mix; plain
	// adds each of them once more without EDNS.
	labels []string
	plain  bool
	// uniquePerMille is the share (per 1000 queries) of never-repeated
	// names under signed zones, the steady source of cache misses.
	uniquePerMille int
	// rate is the fixed open-loop offered load in queries/s: a light load,
	// 7-25% of the closed-loop capacity on a 2-CPU virtual machine at this
	// benchmark's introduction. At heavier rates the tail latency there
	// spread more from run to run (README.md has the figures).
	rate float64
}

// hitLabels answer NOERROR (NXDOMAIN for the NSEC3 case) from Cloudflare:
// the control, the insecure delegations and the EDE 1/2 algorithm cases.
// Once warm, every answer is a frontend.ServeWire hit.
var hitLabels = []string{
	"valid", "unsigned", "no-ds", "nsec3-iter-200",
	"ds-reserved-key-algo", "ds-unassigned-digest-algo",
	"ed448", "rsamd5", "dsa",
}

// edeLabels are every Table 3 case whose Cloudflare answer is SERVFAIL
// with Extended DNS Errors (codes 6/7/8/9/10/22/23). Once warm, every
// answer is an error-cache serve carrying EDE 13.
var edeLabels = []string{
	"ds-bad-tag", "ds-bad-key-algo", "ds-bogus-digest-value",
	"rrsig-exp-all", "rrsig-exp-a", "rrsig-not-yet-all", "rrsig-not-yet-a",
	"rrsig-no-all", "rrsig-no-a", "rrsig-exp-before-all", "rrsig-exp-before-a",
	"nsec3-missing", "bad-nsec3-hash", "bad-nsec3-next", "bad-nsec3-rrsig",
	"nsec3-rrsig-missing", "nsec3param-missing", "bad-nsec3param-salt",
	"no-nsec3param-nsec3",
	"no-zsk", "bad-zsk", "no-ksk", "no-rrsig-ksk", "bad-rrsig-ksk", "bad-ksk",
	"no-rrsig-dnskey", "bad-rrsig-dnskey", "no-dnskey-256", "no-dnskey-257",
	"no-dnskey-256-257", "bad-zsk-algo", "unassigned-zsk-algo", "reserved-zsk-algo",
	"v6-mapped", "v6-multicast", "v6-unspecified", "v4-hex", "v6-unique-local",
	"v6-doc", "v6-link-local", "v6-localhost", "v6-mapped-dep", "v6-nat64",
	"v4-private-10", "v4-doc", "v4-private-172", "v4-loopback", "v4-private-192",
	"v4-reserved", "v4-this-host", "v4-link-local",
	"allow-query-none", "allow-query-localhost",
}

// uniqueZones are the signed zones never-repeated names are drawn under:
// each such name is a validated NXDOMAIN, a full miss path every time.
var uniqueZones = []string{"valid", "no-ds"}

var workloads = []*workload{
	{
		name:   "udp-hit",
		labels: hitLabels, plain: true,
		rate: 10000,
	},
	{
		name:   "udp-ede",
		labels: edeLabels,
		rate:   10000,
	},
	{
		name:    "tcp-cluster",
		cluster: true,
		labels:  append(append([]string(nil), hitLabels...), edeLabels...),
		plain:   true, uniquePerMille: 10,
		rate: 5000,
	},
	{
		name: "scan",
		scan: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, printed for every workload.
// They are the figures that stay put when the host's load swings: CPU time
// of the process under test, its heap, its set-up. Wall-clock throughput
// and latency are printed too, and reported per layer by the traced run
// (loadgen.*, campaign.domains_per_s); README.md has the measurements
// behind the choice.
var endToEnd = []metricSpec{
	{"cpu_us_per_op", "us"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, named <module>.<quantity>.
var perLayer = []metricSpec{
	{"transport.udp.datagrams_per_batch", "count"},
	{"transport.outside_us", "us"},
	{"transport.tcp.pipeline_depth", "count"},
	{"transport.sheds_per_op", "ratio"},
	{"dnswire.scan_ns", "ns"},
	{"dnswire.unpack_ns", "ns"},
	{"dnswire.unpack_allocs", "count"},
	{"dnswire.pack_ns", "ns"},
	{"dnswire.pack_allocs", "count"},
	{"cluster.route_us", "us"},
	{"cluster.remote_hop_us", "us"},
	{"cluster.remote_share", "ratio"},
	{"cluster.spills_takeovers_per_op", "ratio"},
	{"frontend.wire_us", "us"},
	{"frontend.slow_us", "us"},
	{"frontend.wire_share", "ratio"},
	{"frontend.error_serve_share", "ratio"},
	{"frontend.miss_ratio", "ratio"},
	{"frontend.coalesced_per_miss", "ratio"},
	{"frontend.evictions", "count"},
	{"frontend.cache_entries", "count"},
	{"resolver.resolve_us", "us"},
	{"resolver.queries_per_resolution", "ratio"},
	{"resolver.answer_hit_ratio", "ratio"},
	{"resolver.delegation_hit_ratio", "ratio"},
	{"resolver.cache_entries", "count"},
	{"dnssec.validate_us", "us"},
	{"netsim.queries_per_op", "ratio"},
	{"netsim.rtt_us", "us"},
	{"campaign.domains_per_s", "1/s"},
	{"campaign.governor_concurrency", "count"},
	{"campaign.tokens_denied", "count"},
	{"campaign.warmup_s", "s"},
	{"testbed.build_s", "s"},
	{"population.materialize_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"loadgen.qps", "1/s"},
	{"loadgen.p50_us", "us"},
	{"loadgen.lag_us", "us"},
	{"loadgen.p90_us", "us"},
	{"loadgen.p99_us", "us"},
	{"budget.unattributed_share", "ratio"},
	{"trace.overhead", "ratio"},
}
