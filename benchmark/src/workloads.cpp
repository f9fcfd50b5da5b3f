#include "workloads.h"

#include "arch/fault_plan.h"
#include "arch/noc_builder.h"
#include "collective/collective.h"
#include "common/rng.h"
#include "explore/sweep_runner.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"
#include "topology/mesh.h"
#include "topology/routing.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>

#include <malloc.h>

namespace noc_bench {

namespace {

using namespace noc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Measured runs advance the system in chunks of this many cycles; each
/// chunk is one op of the cycle-driven workloads.
constexpr Cycle kChunk = 256;
/// Warm-up cycles of every cycle-driven episode (a chunk multiple, so fault
/// events placed on chunk multiples land exactly at chunk starts).
constexpr Cycle kWarmup = 8 * kChunk;
/// No new episode starts after this much time, whatever --seconds says:
/// a run must end well inside its 180-second limit.
constexpr double kMaxLoopSeconds = 120.0;

bool full(const Context& ctx) { return ctx.scale == Scale::full; }

/// Set-ups timed per full-scale run, at least. Besides each episode's own,
/// extra set-ups are built, timed and discarded after every episode, for a
/// tenth of that episode's time (at most kExtraSetups), then more at the
/// end if the run still has fewer than this. A set-up of a few milliseconds
/// is short enough for a passing slowdown of the host to move it, so
/// set-ups are timed many times, spread over the whole run.
std::size_t min_setups(const Context& ctx) { return full(ctx) ? 7 : 1; }
constexpr std::size_t kExtraSetups = 20;

/// Inputs of episode `e` of workload `w` derive from the run seed alone.
std::uint64_t episode_seed(std::uint64_t seed, std::uint64_t w,
                           std::uint64_t e)
{
    Digest d;
    d.add(seed);
    d.add(w);
    d.add(e);
    return d.value();
}

/// Run `fn` inside a span of `layer` named `name`; returns what it returns.
template<typename Fn>
auto traced(const Context& ctx, const char* layer, const char* name, Fn&& fn)
{
    Scoped_span span{*ctx.tracer, layer, name};
    return fn();
}

/// Run and time one set-up, returning what it built. Freed heap memory is
/// handed back to the OS first, so every set-up starts from the same heap
/// state instead of whatever the previous episode left behind.
template<typename Setup>
auto timed_setup(const Context& ctx, Result& r, Setup&& setup)
{
    Scoped_span span{*ctx.tracer, "bench", "setup"};
    malloc_trim(0);
    const auto t0 = Clock::now();
    auto built = setup();
    r.setup_seconds.push_back(since(t0));
    return built;
}

/// Run episodes while the time budget lasts (at least one), with the extra
/// set-ups min_setups describes; `setup(e)` builds what episode e would.
/// Another episode starts only when it should end no later than half an
/// episode past the budget.
template<typename Episode, typename Setup>
void run_episodes(const Context& ctx, Result& r, Episode&& episode,
                  Setup&& setup)
{
    const auto t0 = Clock::now();
    double last = 0.0;
    std::uint64_t e = 0;
    do {
        const auto te = Clock::now();
        traced(ctx, "bench", "episode", [&] { episode(e); });
        last = since(te);
        // The process's peak so far: the footprint of one episode. Later
        // episodes run on heap memory the earlier ones left behind, so
        // their peaks read higher (fault_storm16: 145 MB, then 178 MB).
        if (e == 0) r.peak_rss_mb = peak_rss_mb();
        const auto ts = Clock::now();
        for (std::size_t i = 0; i < kExtraSetups && since(ts) < last / 10; ++i)
            timed_setup(ctx, r, [&] { return setup(e); });
        ++e;
    } while (since(t0) + last / 2 < ctx.seconds &&
             since(t0) < kMaxLoopSeconds);
    for (std::uint64_t i = 0; r.setup_seconds.size() < min_setups(ctx); ++i)
        timed_setup(ctx, r, [&] { return setup(i); });
}

void check(Result& r, bool ok, const std::string& what)
{
    if (ok) return;
    r.failures.push_back(what);
    ++r.ops_failed;
}

// --- Noc_system helpers ----------------------------------------------------

struct Mesh_config {
    int width = 16;
    int height = 16;
    double rate = 0.0; ///< Bernoulli flits/node/cycle, uniform destinations
    Network_params params{};
    Build_options options{};
};

/// Host seconds of the set-up steps worth reporting on their own.
struct Setup_times {
    std::vector<double> routes;
    std::vector<double> build;
};

std::unique_ptr<Noc_system> build_mesh_system(const Context& ctx,
                                              const Mesh_config& m,
                                              std::uint64_t seed,
                                              Setup_times* times = nullptr)
{
    Tracer& tr = *ctx.tracer;
    Mesh_params mp;
    mp.width = m.width;
    mp.height = m.height;
    Topology topo =
        traced(ctx, "topology", "make_mesh", [&] { return make_mesh(mp); });
    auto t0 = Clock::now();
    Route_set routes = traced(ctx, "topology", "xy_routes",
                              [&] { return xy_routes(topo, mp); });
    if (times != nullptr) times->routes.push_back(since(t0));
    t0 = Clock::now();
    std::unique_ptr<Noc_system> sys;
    {
        Scoped_span s{tr, "arch", "build"};
        sys = Noc_builder{}
                  .topology(std::move(topo))
                  .routes(std::move(routes))
                  .params(m.params)
                  .options(m.options)
                  .build();
    }
    if (times != nullptr) times->build.push_back(since(t0));
    {
        Scoped_span s{tr, "traffic", "attach_sources"};
        const int n = sys->topology().core_count();
        const std::shared_ptr<const Dest_pattern> pattern{
            make_uniform_pattern(n)};
        for (int c = 0; c < n; ++c) {
            const Core_id core{static_cast<std::uint32_t>(c)};
            Bernoulli_source::Params sp;
            sp.flits_per_cycle = m.rate;
            sp.seed = seed * 7919 + static_cast<std::uint64_t>(c);
            sys->ni(core).set_source(
                std::make_unique<Bernoulli_source>(core, sp, pattern));
        }
    }
    return sys;
}

/// Schedule-invariant exact integers of a system: the sim_digest inputs.
/// Scheduling counters (kernel.*, router blocked entries, pool high water)
/// are deliberately left out: they differ between kernel schedules for the
/// same bit-identical simulation.
void digest_system(Noc_system& sys, Digest& d)
{
    const Network_stats& st = sys.stats();
    for (const std::uint64_t v :
         {st.packets_created(), st.packets_delivered(), st.packets_dropped(),
          st.packets_unreachable(), st.flits_dropped(),
          st.measured_created(), st.measured_delivered(),
          st.measured_dropped(), st.measured_unreachable(),
          st.measured_flits_delivered(), sys.total_flits_routed(),
          sys.total_router_buffer_writes(), sys.total_router_buffer_reads(),
          st.multicast_packets(), st.multicast_destinations(),
          st.multicast_deliveries(), st.multicast_forks(),
          st.multicast_copies(), st.corrupted_flits(), st.retransmissions(),
          st.packets_replayed(), sys.kernel().now()})
        d.add(v);
    for (const Exact_stat& s : {st.packet_latency(), st.network_latency()}) {
        d.add(s.count());
        d.add(static_cast<std::uint64_t>(s.sum()));
        d.add(static_cast<std::uint64_t>(s.min()));
        d.add(static_cast<std::uint64_t>(s.max()));
    }
    for (const auto& rec : st.recoveries()) {
        d.add(rec.failed_at);
        d.add(rec.recovered_at);
        for (const Link_id l : rec.links) d.add(l.get());
        for (const Switch_id s : rec.switches) d.add(s.get());
        d.add(rec.unreachable_pairs.size());
        d.add(rec.packets_dropped);
        d.add(rec.packets_replayed);
        d.add(rec.live_switchover ? 1 : 0);
    }
}

std::uint64_t registry_value(const Telemetry_registry& reg, const char* name)
{
    const std::size_t i = reg.find(name);
    return i == Telemetry_registry::npos ? 0 : reg.read(i);
}

bool ends_with(const std::string& s, const char* suffix)
{
    const std::string_view sv{suffix};
    return s.size() >= sv.size() &&
           s.compare(s.size() - sv.size(), sv.size(), sv) == 0;
}

/// Sum of every registry entry named "ni<k><suffix>" (".injected" or
/// ".ejected": flits over all NIs).
std::uint64_t ni_total(const Telemetry_registry& reg, const char* suffix)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < reg.entry_count(); ++i) {
        const std::string& name = reg.entry(i).name;
        if (name.rfind("ni", 0) == 0 && ends_with(name, suffix))
            total += reg.read(i);
    }
    return total;
}

/// Per-layer counters of a system at the end of an episode.
void system_layer_counters(Noc_system& sys, const Telemetry_registry& reg,
                           Counters& c)
{
    std::uint64_t blocked = 0;
    for (std::size_t i = 0; i < reg.entry_count(); ++i)
        if (ends_with(reg.entry(i).name, ".blocked")) blocked += reg.read(i);
    const Network_stats& st = sys.stats();
    const auto hops = static_cast<double>(sys.total_flits_routed());
    c["sim.skip_ahead_cycles"] = static_cast<double>(
        registry_value(reg, "kernel.skip_ahead_cycles"));
    c["sim.cross_shard_wakes"] = static_cast<double>(
        registry_value(reg, "kernel.cross_shard_wakes"));
    c["sim.idle_shard_skips"] = static_cast<double>(
        registry_value(reg, "kernel.idle_shard_skips"));
    c["arch.flit_hops"] = hops;
    c["arch.buffer_writes"] =
        static_cast<double>(sys.total_router_buffer_writes());
    c["arch.router_blocked_entries"] = static_cast<double>(blocked);
    c["arch.blocked_per_flit_hop"] =
        hops > 0 ? static_cast<double>(blocked) / hops : 0.0;
    c["arch.pool_high_water"] =
        static_cast<double>(registry_value(reg, "pool.high_water"));
    c["arch.mcast_forks"] = static_cast<double>(st.multicast_forks());
    c["arch.mcast_copies"] = static_cast<double>(st.multicast_copies());
    c["arch.retransmissions"] = static_cast<double>(st.retransmissions());
    c["arch.corrupted_flits"] = static_cast<double>(st.corrupted_flits());
    c["arch.packets_replayed"] = static_cast<double>(st.packets_replayed());
    c["arch.recoveries"] = static_cast<double>(st.recoveries().size());
    c["traffic.packets_created"] = static_cast<double>(st.packets_created());
    c["traffic.measured_delivered"] =
        static_cast<double>(st.measured_delivered());
}

double active_fraction(Noc_system& sys)
{
    return static_cast<double>(sys.kernel().active_component_count()) /
           static_cast<double>(sys.kernel().component_count());
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// State shared by the three chunk-driven workloads (1, 2 and 5), whose
/// ops are all chunks.
struct Chunk_stats {
    Setup_times setup;
    std::uint64_t hops = 0; ///< flit hops during ops (all episodes)
};

void chunk_details(const Chunk_stats& cs, Result& r)
{
    const double cycles = static_cast<double>(r.ops * kChunk);
    r.details.push_back(
        {"sim_cycles_per_s", cycles / r.op_seconds_total, "cycles/s"});
    r.details.push_back(
        {"flit_hops_per_s",
         static_cast<double>(cs.hops) / r.op_seconds_total, "hops/s"});
    r.details.push_back(
        {"arch.host_ns_per_flit_hop",
         1e9 * r.op_seconds_total / static_cast<double>(cs.hops), "ns"});
    r.details.push_back({"topology.routes_s", median(cs.setup.routes), "s"});
    r.details.push_back({"arch.build_s", median(cs.setup.build), "s"});
}

/// Advance `ops` chunks inside an open measurement window, timing each and
/// recording the rate of every `chunks_per_block` consecutive chunks.
/// Returns the active-component fraction summed over the chunk ends.
double run_chunks(const Context& ctx, Noc_system& sys, std::uint64_t ops,
                  std::uint64_t chunks_per_block, Result& r, Chunk_stats& cs)
{
    const std::uint64_t hops0 = sys.total_flits_routed();
    const std::uint64_t block = std::min(chunks_per_block, ops);
    double block_seconds = 0.0;
    double active = 0.0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const auto t0 = Clock::now();
        traced(ctx, "sim", "advance", [&] { sys.advance(kChunk); });
        const double dt = since(t0);
        r.op_seconds.push_back(dt);
        r.op_seconds_total += dt;
        block_seconds += dt;
        if ((i + 1) % block == 0) {
            r.block_rates.push_back(static_cast<double>(block) /
                                    block_seconds);
            block_seconds = 0.0;
        }
        ++r.ops;
        active += active_fraction(sys);
    }
    cs.hops += sys.total_flits_routed() - hops0;
    return active;
}

/// Checks shared by every drained unicast episode.
void check_drained_accounting(Result& r, Noc_system& sys, bool drained)
{
    const Network_stats& st = sys.stats();
    check(r, drained, "did not drain");
    check(r,
          st.measured_created() ==
              st.measured_delivered() + st.measured_dropped(),
          "measured created != delivered + dropped + unreachable");
}

// --- 1. mesh16_saturated ----------------------------------------------------

Result run_mesh16_saturated(Context& ctx)
{
    const std::uint64_t ops = full(ctx) ? 80 : 4;
    Mesh_config m;
    m.rate = 0.5; // past saturation: every router busy every cycle
    Result r;
    Chunk_stats cs;
    const auto extra_setup = [&](std::uint64_t i) {
        return build_mesh_system(ctx, m, episode_seed(ctx.seed, 1, i));
    };
    run_episodes(ctx, r, [&](std::uint64_t e) {
        const std::uint64_t seed = episode_seed(ctx.seed, 1, e);
        auto sys = timed_setup(ctx, r, [&] {
            return build_mesh_system(ctx, m, seed, &cs.setup);
        });
        Scoped_span run{*ctx.tracer, "bench", "run"};
        traced(ctx, "sim", "warmup", [&] { sys->warmup(kWarmup); });
        Telemetry_registry reg;
        traced(ctx, "telemetry", "attach_telemetry",
               [&] { sys->attach_telemetry(reg); });
        const std::uint64_t ejected0 = ni_total(reg, ".ejected");
        sys->open_measurement(ops * kChunk);
        // Blocks of about half a second of host time.
        const double active = run_chunks(ctx, *sys, ops, 16, r, cs);

        const Network_stats& st = sys->stats();
        // No drain: source queues grow without bound past saturation, so
        // conservation is checked on flits instead of packets.
        check(r, st.packets_dropped() == 0, "packets dropped");
        check(r,
              ni_total(reg, ".injected") - ni_total(reg, ".ejected") ==
                  registry_value(reg, "pool.live"),
              "flits injected - ejected != flits held in the pool");
        check(r, st.measured_delivered() > 0, "nothing delivered");
        Digest d;
        digest_system(*sys, d);
        r.digests.push_back(d.value());
        if (e == 0) {
            // Throughput at saturation: every flit ejected in the window
            // (measured packets alone sit behind the growing backlog).
            r.simulated.push_back(
                {"ejected_flits_per_node_cycle",
                 static_cast<double>(ni_total(reg, ".ejected") - ejected0) /
                     static_cast<double>(ops * kChunk) /
                     static_cast<double>(sys->topology().core_count()),
                 "flits/node/cycle"});
            system_layer_counters(*sys, reg, r.layer);
            r.layer["sim.active_component_frac"] =
                active / static_cast<double>(ops);
        }
    }, extra_setup);
    chunk_details(cs, r);
    return r;
}

// --- 2. mesh32_sharded ------------------------------------------------------

Result run_mesh32_sharded(Context& ctx)
{
    const std::uint64_t ops = full(ctx) ? 100 : 5;
    Mesh_config m;
    m.width = 32;
    m.height = 32;
    m.rate = 0.05;
    m.options.kernel_mode = Kernel_mode::sharded;
    // Two shards, not four: on a shared 4-core host a stall on any core
    // holds every shard at the next barrier. Six seeds spread 11%
    // (interquartile range over median) with four shards, 5% with two.
    m.options.partition = Partition_plan::contiguous(2);
    Result r;
    Chunk_stats cs;
    std::vector<double> drain_seconds;
    const auto extra_setup = [&](std::uint64_t i) {
        return build_mesh_system(ctx, m, episode_seed(ctx.seed, 2, i));
    };
    run_episodes(ctx, r, [&](std::uint64_t e) {
        const std::uint64_t seed = episode_seed(ctx.seed, 2, e);
        auto sys = timed_setup(ctx, r, [&] {
            return build_mesh_system(ctx, m, seed, &cs.setup);
        });
        Scoped_span run{*ctx.tracer, "bench", "run"};
        traced(ctx, "sim", "warmup", [&] { sys->warmup(kWarmup); });
        sys->open_measurement(ops * kChunk);
        // Blocks of about half a second of host time.
        const double active = run_chunks(ctx, *sys, ops, 8, r, cs);
        const auto td = Clock::now();
        const bool drained =
            traced(ctx, "sim", "drain", [&] { return sys->drain(60'000); });
        drain_seconds.push_back(since(td));

        check_drained_accounting(r, *sys, drained);
        check(r, sys->stats().packets_dropped() == 0, "packets dropped");
        Digest d;
        digest_system(*sys, d);
        r.digests.push_back(d.value());
        if (e == 0) {
            const Network_stats& st = sys->stats();
            r.simulated.push_back({"avg_packet_latency_cycles",
                                   st.packet_latency().mean(), "cycles"});
            r.simulated.push_back(
                {"accepted_flits_per_node_cycle",
                 st.accepted_flits_per_cycle() /
                     static_cast<double>(sys->topology().core_count()),
                 "flits/node/cycle"});
            Telemetry_registry reg;
            traced(ctx, "telemetry", "attach_telemetry",
                   [&] { sys->attach_telemetry(reg); });
            system_layer_counters(*sys, reg, r.layer);
            r.layer["sim.active_component_frac"] =
                active / static_cast<double>(ops);
        }
    }, extra_setup);
    chunk_details(cs, r);
    r.details.push_back({"arch.drain_s", median(drain_seconds), "s"});
    return r;
}

// --- 3. collective16 --------------------------------------------------------

Result run_collective16(Context& ctx)
{
    const std::uint64_t rounds = full(ctx) ? 40 : 2;
    Mesh_config m;
    m.rate = 0.02; // background under the collectives
    constexpr Collective_kind kinds[] = {
        Collective_kind::broadcast, Collective_kind::reduce,
        Collective_kind::allreduce, Collective_kind::allgather};
    // A throughput block holds one round of each kind (two at smoke scale).
    const std::uint64_t block =
        std::min<std::uint64_t>(std::size(kinds), rounds);
    Result r;
    std::vector<double> ctor_seconds;
    std::vector<double> run_seconds;
    std::uint64_t hops = 0;
    const auto extra_setup = [&](std::uint64_t i) {
        return build_mesh_system(ctx, m, episode_seed(ctx.seed, 3, i));
    };
    run_episodes(ctx, r, [&](std::uint64_t e) {
        const std::uint64_t seed = episode_seed(ctx.seed, 3, e);
        auto sys = timed_setup(
            ctx, r, [&] { return build_mesh_system(ctx, m, seed); });
        Scoped_span run{*ctx.tracer, "bench", "run"};
        traced(ctx, "sim", "warmup", [&] { sys->warmup(kWarmup); });
        sys->open_measurement(invalid_cycle / 2);
        Rng rng{seed};
        const auto cores =
            static_cast<std::uint64_t>(sys->topology().core_count());
        std::unique_ptr<Collective_driver> driver;
        std::vector<Cycle> completion;
        double active = 0.0;
        double block_seconds = 0.0;
        const std::uint64_t hops0 = sys->total_flits_routed();
        for (std::uint64_t k = 0; k < rounds; ++k) {
            Collective_config cfg;
            cfg.kind = kinds[k % std::size(kinds)];
            cfg.root =
                Core_id{static_cast<std::uint32_t>(rng.next_below(cores))};
            const auto tc = Clock::now();
            {
                // The new driver takes over the delivery listeners before
                // the previous one (whose packets have all landed) dies.
                Scoped_span s{*ctx.tracer, "collective", "driver_ctor"};
                driver = std::make_unique<Collective_driver>(*sys, cfg);
            }
            const auto trun = Clock::now();
            const Cycle start = sys->kernel().now();
            const Cycle done =
                traced(ctx, "collective", "run_to_completion",
                       [&] { return driver->run_to_completion(200'000); });
            const auto tend = Clock::now();
            ctor_seconds.push_back(
                std::chrono::duration<double>(trun - tc).count());
            run_seconds.push_back(
                std::chrono::duration<double>(tend - trun).count());
            const double dt = std::chrono::duration<double>(tend - tc).count();
            r.op_seconds.push_back(dt);
            r.op_seconds_total += dt;
            ++r.ops;
            block_seconds += dt;
            if ((k + 1) % block == 0) {
                r.block_rates.push_back(static_cast<double>(block) /
                                        block_seconds);
                block_seconds = 0.0;
            }
            if (e == 0) active += active_fraction(*sys);
            // A timed-out round may still have packets in flight on its
            // trees: stop here rather than let the next driver replace them.
            if (done == invalid_cycle) {
                check(r, false, "a collective round timed out");
                break;
            }
            completion.push_back(done - start);
        }
        hops += sys->total_flits_routed() - hops0;
        sys->close_measurement();
        const bool drained =
            traced(ctx, "sim", "drain", [&] { return sys->drain(60'000); });
        check_drained_accounting(r, *sys, drained);
        const Network_stats& st = sys->stats();
        check(r, st.multicast_deliveries() == st.multicast_destinations(),
              "multicast deliveries != destinations");
        Digest d;
        for (const Cycle c : completion) d.add(c);
        digest_system(*sys, d);
        r.digests.push_back(d.value());
        if (e == 0) {
            std::vector<double> cycles(completion.begin(), completion.end());
            r.simulated.push_back(
                {"collective_cycles_p50", percentile(cycles, 0.5), "cycles"});
            r.simulated.push_back(
                {"collective_cycles_p95", percentile(cycles, 0.95), "cycles"});
            r.simulated.push_back({"avg_packet_latency_cycles",
                                   st.packet_latency().mean(), "cycles"});
            Telemetry_registry reg;
            traced(ctx, "telemetry", "attach_telemetry",
                   [&] { sys->attach_telemetry(reg); });
            system_layer_counters(*sys, reg, r.layer);
            r.layer["sim.active_component_frac"] =
                active / static_cast<double>(rounds);
            r.layer["collective.rounds"] = static_cast<double>(rounds);
        }
    }, extra_setup);
    double ctor_total = 0.0;
    for (const double s : ctor_seconds) ctor_total += s;
    r.layer["collective.ctor_pct"] = 100.0 * ctor_total / r.op_seconds_total;
    r.details.push_back({"collective.driver_ctor_ms_p50",
                         1e3 * percentile(ctor_seconds, 0.5), "ms"});
    r.details.push_back({"collective.driver_ctor_ms_p95",
                         1e3 * percentile(ctor_seconds, 0.95), "ms"});
    r.details.push_back(
        {"collective.run_ms_p50", 1e3 * percentile(run_seconds, 0.5), "ms"});
    r.details.push_back(
        {"collective.run_ms_p95", 1e3 * percentile(run_seconds, 0.95), "ms"});
    r.details.push_back({"collectives_per_s",
                         static_cast<double>(r.ops) / r.op_seconds_total,
                         "collectives/s"});
    r.details.push_back(
        {"flit_hops_per_s", static_cast<double>(hops) / r.op_seconds_total,
         "hops/s"});
    return r;
}

// --- 4. sweep8_explore ------------------------------------------------------

/// The bench_sweep acceptance spec (8x8 mesh and torus, 2 VCs, uniform and
/// tornado traffic) with the load grid widened to six values and live
/// saturation early-stop armed.
Sweep_spec sweep8_spec(const Context& ctx, std::uint64_t seed)
{
    Network_params vc2;
    vc2.route_vcs = 2; // datelines for the torus; same buffers for the mesh
    Sweep_spec spec;
    spec.name = "mesh-vs-torus-8x8";
    spec.add_mesh(8, 8, vc2, "vc2");
    spec.add_torus(8, 8, vc2, "vc2");
    spec.add_synthetic(Sweep_pattern_kind::uniform);
    if (full(ctx)) {
        spec.add_synthetic(Sweep_pattern_kind::tornado);
        spec.loads = {0.05, 0.10, 0.20, 0.275, 0.35, 0.45};
        spec.search_saturation = true;
        // Short points (about 2 s per sweep on 2 workers) so a run holds
        // several sweeps: per-point construction and drain weigh more than
        // the cycles, as in a designer's first coarse pass.
        spec.base.warmup = 300;
        spec.base.measure = 1'000;
        spec.base.drain_limit = 5'000;
        spec.base.early_stop_check = 250;
    } else {
        spec.loads = {0.20};
        spec.base.warmup = 200;
        spec.base.measure = 1'000;
        spec.base.drain_limit = 8'000;
        spec.base.early_stop_check = 200;
    }
    spec.base.seed = seed;
    return spec;
}

struct Sweep_setup {
    Sweep_spec spec;
    std::unique_ptr<Sweep_runner> runner;
};

/// Everything a sweep needs before it runs: the validated spec and the
/// runner with its workers. Each grid point builds its own system inside
/// Sweep_runner::run, so that build is part of the op, not of set-up.
Sweep_setup setup_sweep(const Context& ctx, std::uint64_t seed)
{
    Tracer& tr = *ctx.tracer;
    Sweep_setup s;
    {
        Scoped_span span{tr, "explore", "spec"};
        s.spec = sweep8_spec(ctx, seed);
        (void)s.spec.enumerate();
    }
    {
        // Two workers, not four: with every core of the shared 4-core host
        // busy, points/s and peak RSS spread more from run to run.
        Scoped_span span{tr, "explore", "runner_ctor"};
        s.runner = std::make_unique<Sweep_runner>(2);
    }
    return s;
}

Result run_sweep8_explore(Context& ctx)
{
    Result r;
    std::vector<double> grid_seconds;
    std::vector<double> tail_seconds;
    std::vector<double> json_seconds;
    const auto extra_setup = [&](std::uint64_t i) {
        return setup_sweep(ctx, episode_seed(ctx.seed, 4, i));
    };
    run_episodes(ctx, r, [&](std::uint64_t e) {
        const std::uint64_t seed = episode_seed(ctx.seed, 4, e);
        Sweep_setup s =
            timed_setup(ctx, r, [&] { return setup_sweep(ctx, seed); });
        Scoped_span run{*ctx.tracer, "bench", "run"};

        // Completion time of the last grid point, ns since trun: the hook
        // runs on every worker thread.
        std::atomic<std::int64_t> last_point_ns{0};
        const auto trun = Clock::now();
        s.runner->set_point_done_hook([&] {
            const std::int64_t t =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - trun)
                    .count();
            std::int64_t prev = last_point_ns.load();
            while (prev < t && !last_point_ns.compare_exchange_weak(prev, t)) {
            }
        });
        const Sweep_result result = traced(
            ctx, "explore", "run", [&] { return s.runner->run(s.spec); });
        const double run_s = since(trun);
        const auto tj = Clock::now();
        const std::string json = traced(ctx, "explore", "to_json",
                                        [&] { return result.to_json(); });
        json_seconds.push_back(since(tj));
        grid_seconds.push_back(1e-9 *
                               static_cast<double>(last_point_ns.load()));
        tail_seconds.push_back(run_s - grid_seconds.back());

        std::uint64_t points = 0;
        std::uint64_t stopped = 0;
        std::uint64_t measured_cycles = 0;
        std::uint64_t searches = 0;
        for (const Design_curve& c : result.curves) {
            if (c.saturation_searched) ++searches;
            for (const Point_result& p : c.points) {
                ++points;
                check(r, p.error.empty() && !p.skipped,
                      "sweep point " + c.label + " failed: " + p.error);
                r.op_seconds.push_back(p.wall_seconds);
                measured_cycles += p.load.measured_cycles;
                if (p.load.early_stopped) ++stopped;
            }
        }
        const std::uint64_t expected_searches =
            s.spec.search_saturation ? s.spec.curve_count() : 0;
        check(r, searches == expected_searches, "saturation search failed");
        r.ops += points + expected_searches;
        r.op_seconds_total += run_s;
        r.block_rates.push_back(
            static_cast<double>(points + expected_searches) / run_s);

        Digest d;
        d.add(json);
        r.digests.push_back(d.value());
        if (e == 0) {
            r.simulated.push_back({"sweep_points", static_cast<double>(points),
                                   "points"});
            r.simulated.push_back({"early_stopped_points",
                                   static_cast<double>(stopped), "points"});
            r.layer["explore.points"] = static_cast<double>(points);
            r.layer["explore.early_stopped_points"] =
                static_cast<double>(stopped);
            r.layer["explore.measured_cycle_frac"] =
                static_cast<double>(measured_cycles) /
                static_cast<double>(points * s.spec.base.measure);
        }
    }, extra_setup);
    double grid = 0.0;
    double tail = 0.0;
    for (std::size_t i = 0; i < grid_seconds.size(); ++i) {
        grid += grid_seconds[i];
        tail += tail_seconds[i];
    }
    r.layer["explore.tail_pct"] = 100.0 * tail / (grid + tail);
    r.details.push_back({"explore.grid_s", median(grid_seconds), "s"});
    r.details.push_back({"explore.tail_s", median(tail_seconds), "s"});
    r.details.push_back({"explore.to_json_s", median(json_seconds), "s"});
    r.details.push_back({"points_per_s",
                         static_cast<double>(r.ops) / r.op_seconds_total,
                         "points/s"});
    return r;
}

// --- 5. fault_storm16 -------------------------------------------------------

struct Storm_shape {
    Cycle measure = 0;
    Cycle spacing = 0; ///< cycles between permanent failures
    std::uint32_t permanents = 0;
    std::uint32_t transients = 0;
};

Storm_shape storm_shape(const Context& ctx)
{
    if (full(ctx)) return {800 * kChunk, 80 * kChunk, 9, 256};
    return {40 * kChunk, 20 * kChunk, 1, 16};
}

/// Seeded storm: `transients` corruptions at random cycles and links in
/// the measurement window, and a permanent failure every `spacing` cycles,
/// alternating between a link (both ends alive) and a router death (never
/// switch 0, the reroute root). Every permanent event hits something still
/// alive, so each one is a recovery.
std::shared_ptr<const Fault_plan> make_storm(const Topology& topo,
                                             const Storm_shape& shape,
                                             std::uint64_t seed)
{
    auto plan = std::make_shared<Fault_plan>();
    plan->replay = true;
    Rng rng{seed};
    const auto links = static_cast<std::uint64_t>(topo.link_count());
    const auto switches = static_cast<std::uint64_t>(topo.switch_count());
    std::set<Switch_id> dead;
    std::set<Link_id> failed;
    for (std::uint32_t k = 1; k <= shape.permanents; ++k) {
        const Cycle at = kWarmup + k * shape.spacing;
        if (k % 2 == 1) {
            Link_id l;
            do {
                l = Link_id{static_cast<std::uint32_t>(rng.next_below(links))};
            } while (failed.count(l) != 0 ||
                     dead.count(topo.link(l).from) != 0 ||
                     dead.count(topo.link(l).to) != 0);
            failed.insert(l);
            plan->add_permanent(at, {l});
        } else {
            Switch_id s;
            do {
                s = Switch_id{static_cast<std::uint32_t>(
                    1 + rng.next_below(switches - 1))};
            } while (dead.count(s) != 0);
            dead.insert(s);
            plan->add_router_death(at, s);
        }
    }
    for (std::uint32_t i = 0; i < shape.transients; ++i) {
        const Cycle at = kWarmup + rng.next_below(shape.measure);
        plan->add_transient(
            at, Link_id{static_cast<std::uint32_t>(rng.next_below(links))});
    }
    return plan;
}

/// One storm episode's system plus the telemetry attached to it (the
/// sampler must stop before the registry and the system go away).
struct Storm_system {
    std::shared_ptr<const Fault_plan> plan;
    std::unique_ptr<Noc_system> sys;
    std::unique_ptr<Telemetry_registry> registry;
    std::unique_ptr<Telemetry_sampler> sampler;
    double attach_seconds = 0.0;
};

Storm_system setup_storm(const Context& ctx, const Storm_shape& shape,
                         std::uint64_t seed, const std::string& stream_path,
                         Setup_times* times = nullptr)
{
    Tracer& tr = *ctx.tracer;
    Storm_system s;
    Mesh_config m;
    m.rate = 0.03;
    Mesh_params mp;
    mp.width = m.width;
    mp.height = m.height;
    {
        // The plan needs the topology: build a throwaway copy for it (the
        // generators are deterministic, so ids match the system's).
        Scoped_span span{tr, "arch", "fault_plan"};
        s.plan = make_storm(make_mesh(mp), shape, seed);
    }
    m.options.fault_plan = s.plan;
    s.sys = build_mesh_system(ctx, m, seed, times);
    const auto t0 = Clock::now();
    {
        Scoped_span span{tr, "telemetry", "attach_telemetry"};
        s.registry = std::make_unique<Telemetry_registry>();
        s.sys->attach_telemetry(*s.registry);
        s.sampler = std::make_unique<Telemetry_sampler>(s.registry.get(),
                                                        kChunk, stream_path);
        s.sys->attach_sampler(s.sampler.get());
    }
    s.attach_seconds = since(t0);
    return s;
}

std::vector<std::uint8_t> read_file(const std::string& path)
{
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in},
            std::istreambuf_iterator<char>{}};
}

Result run_fault_storm16(Context& ctx)
{
    const Storm_shape shape = storm_shape(ctx);
    const std::uint64_t ops = shape.measure / kChunk;
    const std::string stream_path =
        std::string{kOutputDir} + "/fault_storm16.noct";
    Result r;
    Chunk_stats cs;
    std::vector<double> attach_seconds;
    std::vector<double> stop_seconds;
    double fault_chunk_max = 0.0;
    const auto extra_setup = [&](std::uint64_t i) {
        return setup_storm(ctx, shape, episode_seed(ctx.seed, 5, i), {});
    };
    run_episodes(ctx, r, [&](std::uint64_t e) {
        const std::uint64_t seed = episode_seed(ctx.seed, 5, e);
        Storm_system s = timed_setup(ctx, r, [&] {
            return setup_storm(ctx, shape, seed, stream_path, &cs.setup);
        });
        attach_seconds.push_back(s.attach_seconds);
        Scoped_span run{*ctx.tracer, "bench", "run"};
        Noc_system& sys = *s.sys;
        traced(ctx, "sim", "warmup", [&] { sys.warmup(kWarmup); });
        sys.open_measurement(shape.measure);
        const std::size_t first_chunk = r.op_seconds.size();
        // One block per failure spacing: every block but the first starts
        // with a permanent failure, so all blocks carry the same work mix.
        const double active =
            run_chunks(ctx, sys, ops, shape.spacing / kChunk, r, cs);
        // Permanent failures land exactly at chunk starts.
        for (const Permanent_fault& f : s.plan->permanents()) {
            const std::size_t i = first_chunk + (f.at - kWarmup) / kChunk;
            fault_chunk_max = std::max(fault_chunk_max, r.op_seconds[i]);
        }
        const bool drained =
            traced(ctx, "sim", "drain", [&] { return sys.drain(100'000); });
        const auto ts = Clock::now();
        {
            Scoped_span span{*ctx.tracer, "telemetry", "sampler_stop"};
            sys.attach_sampler(nullptr);
            s.sampler->stop();
        }
        stop_seconds.push_back(since(ts));
        const std::vector<std::uint8_t> bytes = read_file(stream_path);
        const Telemetry_stream stream =
            traced(ctx, "telemetry", "decode",
                   [&] { return decode_telemetry_stream(bytes); });
        std::remove(stream_path.c_str());

        const Network_stats& st = sys.stats();
        check_drained_accounting(r, sys, drained);
        // Replay re-injects every packet purged on a still-connected pair,
        // so the only losses left are the unreachable ones.
        check(r, st.packets_dropped() == st.packets_unreachable(),
              "replay invariant: dropped != unreachable");
        check(r, st.recoveries().size() == s.plan->permanents().size(),
              "a permanent failure did not recover");
        check(r, stream.records.size() == s.sampler->sample_count(),
              "telemetry stream does not decode to sample_count records");
        Digest d;
        digest_system(sys, d);
        r.digests.push_back(d.value());
        if (e == 0) {
            double ttr = 0.0;
            for (const auto& rec : st.recoveries())
                ttr += static_cast<double>(rec.time_to_recover());
            ttr /= static_cast<double>(std::max<std::size_t>(
                1, st.recoveries().size()));
            const auto delivered = static_cast<double>(st.measured_delivered());
            const auto connected_dropped = static_cast<double>(
                st.measured_dropped() - st.measured_unreachable());
            r.simulated.push_back({"time_to_recover_cycles", ttr, "cycles"});
            r.simulated.push_back(
                {"connected_availability",
                 delivered / (delivered + connected_dropped), "ratio"});
            r.simulated.push_back({"avg_packet_latency_cycles",
                                   st.packet_latency().mean(), "cycles"});
            r.simulated.push_back({"recoveries",
                                   static_cast<double>(st.recoveries().size()),
                                   "count"});
            system_layer_counters(sys, *s.registry, r.layer);
            r.layer["sim.active_component_frac"] =
                active / static_cast<double>(ops);
            r.layer["telemetry.samples"] =
                static_cast<double>(s.sampler->sample_count());
            r.layer["telemetry.stream_bytes"] =
                static_cast<double>(bytes.size());
        }
    }, extra_setup);
    chunk_details(cs, r);
    r.details.push_back(
        {"arch.fault_chunk_ms_max", 1e3 * fault_chunk_max, "ms"});
    r.details.push_back({"telemetry.attach_s", median(attach_seconds), "s"});
    r.details.push_back({"telemetry.stop_s", median(stop_seconds), "s"});
    return r;
}

} // namespace

const std::vector<Workload>& workloads()
{
    static const std::vector<Workload> all = {
        {"mesh16_saturated", run_mesh16_saturated},
        {"mesh32_sharded", run_mesh32_sharded},
        {"collective16", run_collective16},
        {"sweep8_explore", run_sweep8_explore},
        {"fault_storm16", run_fault_storm16},
    };
    return all;
}

} // namespace noc_bench
