// Small measurement helpers shared by the workloads and main.cpp:
// FNV-1a digests of simulated outputs, order statistics over host times,
// peak RSS, and the metric record every workload reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace noc_bench {

/// FNV-1a (64-bit) over a sequence of integers and byte strings. Golden
/// files pin the digest of each workload's first episode.
class Digest {
public:
    void add(std::uint64_t v);
    void add(std::string_view bytes);
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 14695981039346656037ull;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Peak resident set size of the process so far, MB.
[[nodiscard]] double peak_rss_mb();

/// Shortest decimal form that reads back as the same double.
[[nodiscard]] std::string number(double v);

/// One reported value: "name value unit" on stdout, and a JSON entry.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Name -> value map with a fixed unit per name (per-layer counters).
using Counters = std::map<std::string, double>;

} // namespace noc_bench
