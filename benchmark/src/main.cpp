// noc_bench — one workload of the end-to-end benchmark per process.
//
//   noc_bench --workload NAME --seed S [--seconds T] [--trace 0|1]
//             [--scale smoke|full] [--golden-dir DIR]
//
// Run from the repository root. Prints every metric as "name value unit",
// checks the workload's outputs (invariants, plus the golden sim_digest when
// the golden directory has one for this workload, seed and scale), writes
// the trace of a traced run to build-benchmark/trace-<workload>.json, and
// ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
// Exits non-zero on bad arguments or when the simulator throws; failed
// checks are reported through "correct" and "failed".
#include "metrics.h"
#include "trace.h"
#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace noc_bench {
namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = Scale::full;
    std::string golden_dir = "benchmark/golden";
};

/// Per-layer metrics of the traced run, in output order. Self-time shares
/// come from the trace; the rest from the workload's episode 0 (0 where a
/// workload never calls into that layer).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"bench.self_pct", "%"},
    {"sim.self_pct", "%"},
    {"arch.self_pct", "%"},
    {"topology.self_pct", "%"},
    {"traffic.self_pct", "%"},
    {"collective.self_pct", "%"},
    {"explore.self_pct", "%"},
    {"telemetry.self_pct", "%"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
    {"sim.active_component_frac", "ratio"},
    {"sim.skip_ahead_cycles", "cycles"},
    {"sim.cross_shard_wakes", "count"},
    {"sim.idle_shard_skips", "count"},
    {"arch.flit_hops", "count"},
    {"arch.buffer_writes", "count"},
    {"arch.router_blocked_entries", "count"},
    {"arch.blocked_per_flit_hop", "ratio"},
    {"arch.pool_high_water", "flits"},
    {"arch.mcast_forks", "count"},
    {"arch.mcast_copies", "count"},
    {"arch.retransmissions", "count"},
    {"arch.corrupted_flits", "count"},
    {"arch.packets_replayed", "count"},
    {"arch.recoveries", "count"},
    {"traffic.packets_created", "count"},
    {"traffic.measured_delivered", "count"},
    {"collective.rounds", "count"},
    {"collective.ctor_pct", "%"},
    {"explore.points", "count"},
    {"explore.early_stopped_points", "count"},
    {"explore.measured_cycle_frac", "ratio"},
    {"explore.tail_pct", "%"},
    {"telemetry.samples", "count"},
    {"telemetry.stream_bytes", "bytes"},
};

int usage(const char* why)
{
    std::fprintf(stderr,
                 "noc_bench: %s\nusage: noc_bench --workload NAME --seed S "
                 "[--seconds T] [--trace 0|1] [--scale smoke|full] "
                 "[--golden-dir DIR]\nworkloads:",
                 why);
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool parse(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        const char* flag = argv[i];
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) o.workload = v;
        else if (std::strcmp(flag, "--seed") == 0) o.seed = std::stoull(v);
        else if (std::strcmp(flag, "--seconds") == 0) o.seconds = std::stod(v);
        else if (std::strcmp(flag, "--trace") == 0) o.trace = v != "0";
        else if (std::strcmp(flag, "--golden-dir") == 0) o.golden_dir = v;
        else if (std::strcmp(flag, "--scale") == 0 && v == "smoke")
            o.scale = Scale::smoke;
        else if (std::strcmp(flag, "--scale") == 0 && v == "full")
            o.scale = Scale::full;
        else return false;
    }
    return !o.workload.empty() && o.seconds >= 0.0;
}

const char* scale_name(Scale s) { return s == Scale::full ? "full" : "smoke"; }

std::string golden_path(const Options& o)
{
    return o.golden_dir + "/" + scale_name(o.scale) + ".txt";
}

/// The golden episode-0 digest for (workload, seed), or "" when the golden
/// file has none. Lines: "<workload> <seed> <16-hex-digit digest>"; lines
/// starting with '#' are comments.
std::string golden_digest(const Options& o)
{
    std::ifstream in{golden_path(o)};
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields{line};
        std::string name;
        std::uint64_t seed = 0;
        std::string digest;
        if (fields >> name >> seed >> digest && name == o.workload &&
            seed == o.seed)
            return digest;
    }
    return {};
}

void print_metric(const Metric& m)
{
    std::printf("%-36s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
}

std::string json_metrics(const std::vector<Metric>& ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i)
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
               number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
    return out + "}";
}

int run(const Options& o)
{
    const Workload* w = nullptr;
    for (const Workload& c : workloads())
        if (o.workload == c.name) w = &c;
    if (w == nullptr) return usage("unknown workload");

    const auto t0 = std::chrono::steady_clock::now();
    Tracer tracer{o.trace};
    Context ctx;
    ctx.seed = o.seed;
    ctx.seconds = o.seconds;
    ctx.scale = o.scale;
    ctx.tracer = &tracer;
    Result r;
    {
        Scoped_span root{tracer, "bench", "workload"};
        r = w->run(ctx);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::printf("workload %s seed %llu scale %s trace %d\n", w->name,
                static_cast<unsigned long long>(o.seed), scale_name(o.scale),
                o.trace ? 1 : 0);
    const std::vector<Metric> end_to_end = {
        {"setup_s", percentile(r.setup_seconds, 0.5), "s"},
        // The 90th percentile, not the median: interference from other
        // work on the host only ever slows a block down, so the fast end
        // of the blocks is the steadiest estimate of the simulator's speed.
        {"ops_per_s", percentile(r.block_rates, 0.9), "ops/s"},
        {"peak_rss_mb", r.peak_rss_mb, "MB"},
    };
    for (const Metric& m : end_to_end) print_metric(m);
    print_metric({"op_ms_p50", 1e3 * percentile(r.op_seconds, 0.5), "ms"});
    print_metric({"op_ms_p95", 1e3 * percentile(r.op_seconds, 0.95), "ms"});
    print_metric({"op_samples", static_cast<double>(r.op_seconds.size()),
                  "count"});
    for (const Metric& m : r.details) print_metric(m);
    for (const Metric& m : r.simulated) print_metric(m);
    print_metric({"wall_s", wall, "s"});
    print_metric({"ops", static_cast<double>(r.ops), "count"});
    print_metric({"setups", static_cast<double>(r.setup_seconds.size()),
                  "count"});
    print_metric({"episodes", static_cast<double>(r.digests.size()),
                  "count"});

    const std::string digest = hex64(r.digests.front());
    const std::string golden = golden_digest(o);
    std::printf("sim_digest %s golden %s\n", digest.c_str(),
                golden.empty() ? "none" : golden == digest ? "match"
                                                           : "MISMATCH");
    if (golden.empty())
        std::fprintf(stderr,
                     "noc_bench: warning: %s has no digest for %s seed %llu; "
                     "simulated outcomes are checked by the invariants "
                     "only\n",
                     golden_path(o).c_str(), w->name,
                     static_cast<unsigned long long>(o.seed));
    if (!golden.empty() && golden != digest) {
        r.failures.push_back("sim_digest " + digest + " != golden " +
                             golden);
        ++r.ops_failed;
    }
    for (const std::string& f : r.failures)
        std::printf("check FAILED: %s\n", f.c_str());
    print_metric({"ops_failed", static_cast<double>(r.ops_failed), "count"});

    std::vector<Metric> reported = end_to_end;
    if (o.trace) {
        reported.clear();
        const auto self = tracer.self_seconds_by_layer();
        double traced = 0.0;
        for (const auto& [layer, s] : self) traced += s;
        std::printf("\nlayer self time (traced run)\n");
        for (const auto& [layer, s] : self)
            std::printf("  %-12s %10.4f s %6.2f%%\n", layer.c_str(), s,
                        100.0 * s / traced);
        const double overhead = static_cast<double>(tracer.spans().size()) *
                                Tracer::span_cost_seconds();
        std::printf("  %-12s %10.4f s of %.4f s wall; tracing overhead "
                    "%.6f s (%zu spans)\n\n",
                    "sum", traced, wall, overhead, tracer.spans().size());
        Counters c = r.layer;
        for (const auto& [layer, s] : self)
            c[layer + ".self_pct"] = 100.0 * s / traced;
        c["trace.spans"] = static_cast<double>(tracer.spans().size());
        c["trace.overhead_pct"] = 100.0 * overhead / traced;
        for (const auto& [name, unit] : kPerLayer) {
            const auto it = c.find(name);
            reported.push_back(
                {name, it == c.end() ? 0.0 : it->second, unit});
            print_metric(reported.back());
        }
        const std::string path =
            std::string{kOutputDir} + "/trace-" + w->name + ".json";
        std::ofstream{path} << tracer.to_json();
        std::printf("trace written to %s\n", path.c_str());
    }

    // A failed check counts one failed op; several can hit the same op.
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(std::min(r.ops_failed, r.ops)),
                json_metrics(reported).c_str());
    return 0;
}

} // namespace
} // namespace noc_bench

int main(int argc, char** argv)
{
    noc_bench::Options o;
    try {
        if (!noc_bench::parse(argc, argv, o))
            return noc_bench::usage("bad arguments");
        return noc_bench::run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "noc_bench: %s\n", e.what());
        return 1;
    }
}
