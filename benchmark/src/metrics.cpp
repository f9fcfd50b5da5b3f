#include "metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

namespace noc_bench {

void Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void Digest::add(std::string_view bytes)
{
    add(static_cast<std::uint64_t>(bytes.size()));
    for (const char c : bytes) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ull;
    }
}

std::string hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double percentile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb()
{
    std::ifstream status{"/proc/self/status"};
    std::string key;
    double kib = 0.0;
    while (status >> key)
        if (key == "VmHWM:" && status >> kib) return kib / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string number(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return {buf, r.ptr};
}

} // namespace noc_bench
