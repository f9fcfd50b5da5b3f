// The benchmark's five workloads. Each drives the simulator only through
// its public API, times the calls from outside, and checks its own outputs.
//
// A run is a sequence of EPISODES: build a fresh system (the timed set-up),
// run a fixed amount of simulated work in timed ops, check the results.
// Episodes repeat until the run's time budget is spent, so a faster
// simulator completes more ops in the same budget while every episode
// stays a fixed, deterministic unit of work: episode e of seed s always
// simulates the same inputs, and its sim_digest is golden-checked.
#pragma once

#include "metrics.h"
#include "trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace noc_bench {

enum class Scale { smoke, full };

/// Where the benchmark writes, relative to the repository root it runs
/// from: the trace of a traced run and the telemetry stream of
/// fault_storm16 (removed once decoded). The build directory is git-ignored.
inline constexpr const char* kOutputDir = "build-benchmark";

struct Context {
    std::uint64_t seed = 1;
    /// Measurement budget: episodes start until this much time has passed
    /// (at least one episode always runs).
    double seconds = 10.0;
    Scale scale = Scale::full;
    Tracer* tracer = nullptr;
};

struct Result {
    std::uint64_t ops = 0;
    std::uint64_t ops_failed = 0;
    /// Host seconds spent inside ops.
    double op_seconds_total = 0.0;
    /// Host seconds of each op whose latency is reported.
    std::vector<double> op_seconds;
    /// Ops per second over each block of consecutive ops, every block
    /// carrying the same mix of work; ops_per_s is their 90th percentile,
    /// so stalls that slow some blocks do not move it.
    std::vector<double> block_rates;
    /// Peak resident set size of the process when episode 0 ends, MB.
    double peak_rss_mb = 0.0;
    /// Host seconds of each set-up performed.
    std::vector<double> setup_seconds;
    /// sim_digest of every episode, in order.
    std::vector<std::uint64_t> digests;
    /// Failed checks, one line each (empty = every check passed).
    std::vector<std::string> failures;
    /// Simulated outcomes of episode 0 (deterministic; printed).
    std::vector<Metric> simulated;
    /// Host timings specific to this workload (printed).
    std::vector<Metric> details;
    /// Per-layer counters (of episode 0) and time shares (of the run).
    Counters layer;
};

struct Workload {
    const char* name;
    Result (*run)(Context&);
};

[[nodiscard]] const std::vector<Workload>& workloads();

} // namespace noc_bench
