#include "trace.h"

#include <map>
#include <stdexcept>

namespace noc_bench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
    if (enabled_) spans_.reserve(1u << 16);
}

std::int64_t Tracer::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint32_t Tracer::open(const char* layer, const char* name)
{
    Span s;
    s.layer = layer;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
}

void Tracer::close(std::uint32_t id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error{"Tracer: spans must close innermost first"};
    stack_.pop_back();
    spans_[id - 1].end_ns = now_ns();
}

std::vector<std::pair<std::string, double>>
Tracer::self_seconds_by_layer() const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
        if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    std::map<std::string, double> by_layer;
    for (const Span& s : spans_)
        by_layer[s.layer] +=
            static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id - 1]) *
            1e-9;
    return {by_layer.begin(), by_layer.end()};
}

std::string Tracer::to_json() const
{
    std::string out = "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out += "  {\"id\": " + std::to_string(s.id) +
               ", \"parent\": " + std::to_string(s.parent) +
               ", \"layer\": \"" + s.layer + "\", \"name\": \"" + s.name +
               "\", \"start_ns\": " + std::to_string(s.start_ns) +
               ", \"end_ns\": " + std::to_string(s.end_ns) + "}" +
               (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    return out + "]}\n";
}

double Tracer::span_cost_seconds()
{
    constexpr int reps = 20000;
    Tracer probe{true};
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) probe.close(probe.open("x", "x"));
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / reps;
}

} // namespace noc_bench
