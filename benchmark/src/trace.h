// In-memory span recorder for the benchmark's traced run (--trace 1).
//
// The benchmark records one span around each public call it makes into a
// layer of the simulator (topology generators, Noc_system construction and
// run chunks, collective drivers, the sweep runner, telemetry), nested as
// workload -> episode -> setup/run -> call. Spans live in memory and are
// written out only when the run ends, so recording costs two clock reads and
// a vector append. Everything is single-threaded: spans are opened and
// closed on the thread that drives the workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace noc_bench {

class Tracer {
public:
    struct Span {
        const char* layer = "";
        const char* name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;
        std::uint32_t id = 0;     ///< 1-based; spans()[id - 1]
        std::uint32_t parent = 0; ///< 0 = no parent (the root span)
    };

    explicit Tracer(bool enabled);

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Open a span under the innermost open span; returns its id.
    std::uint32_t open(const char* layer, const char* name);
    /// Close span `id` (must be the innermost open span).
    void close(std::uint32_t id);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Self time per layer, seconds: each span's duration minus the time its
    /// direct children cover, summed by layer. Spans nest strictly, so the
    /// layer totals add up to the root spans' durations.
    [[nodiscard]] std::vector<std::pair<std::string, double>>
    self_seconds_by_layer() const;

    /// {"spans": [{"id", "parent", "layer", "name", "start_ns", "end_ns"}]}
    [[nodiscard]] std::string to_json() const;

    /// Host cost of one open/close pair, measured on a throwaway tracer.
    [[nodiscard]] static double span_cost_seconds();

private:
    [[nodiscard]] std::int64_t now_ns() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/// RAII span; a no-op (one branch) when tracing is off.
class Scoped_span {
public:
    Scoped_span(Tracer& tracer, const char* layer, const char* name)
        : tracer_(tracer), id_(tracer.enabled() ? tracer.open(layer, name) : 0)
    {
    }
    ~Scoped_span()
    {
        if (id_ != 0) tracer_.close(id_);
    }
    Scoped_span(const Scoped_span&) = delete;
    Scoped_span& operator=(const Scoped_span&) = delete;

private:
    Tracer& tracer_;
    std::uint32_t id_;
};

} // namespace noc_bench
