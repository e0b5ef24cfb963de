#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
fastDecile(std::vector<double> v, bool higherIsBetter)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = (higherIsBetter ? 0.9 : 0.1) * double(v.size() - 1);
    const auto lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

std::optional<double>
tailPercentile(std::vector<double> samples, double p)
{
    if (samples.empty() || !(p > 0.0 && p < 1.0))
        return std::nullopt;
    const std::size_t n = samples.size();
    // Nearest rank: the smallest sample with at least p*n at or below.
    auto rank = std::size_t(std::ceil(p * double(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < kMinTailSamples)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + std::ptrdiff_t(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '.' ||
               c == '-';
    });
}

bool
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    if (!validMetricName(name) || !std::isfinite(value) || find(name))
        return false;
    metrics_.push_back({name, value, unit});
    return true;
}

const Metric *
MetricSet::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Shortest text that parses back to exactly v.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

std::string
resultJson(bool correct, const FailureCount &failures,
           const MetricSet &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(failures.attempted);
    out += ", \"failed\": " + std::to_string(failures.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics.all()) {
        if (!first)
            out += ", ";
        first = false;
        appendJsonString(out, m.name);
        out += ": {\"value\": ";
        appendJsonNumber(out, m.value);
        out += ", \"unit\": ";
        appendJsonString(out, m.unit);
        out += '}';
    }
    out += "}}";
    return out;
}

int
SpanLog::add(const std::string &name, std::int64_t startNs,
             std::int64_t endNs, int parent, std::int64_t unitId)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return -1;
    }
    spans_.push_back({name, startNs, endNs, parent, unitId});
    return int(spans_.size()) - 1;
}

std::string
SpanLog::json(const std::string &metaJson) const
{
    std::string out = "{\"meta\": " + metaJson;
    out += ", \"dropped\": " + std::to_string(dropped_);
    out += ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out += i ? ",\n" : "\n";
        out += "{\"id\": " + std::to_string(i) + ", \"name\": ";
        appendJsonString(out, s.name);
        out += ", \"start_ns\": " + std::to_string(s.start);
        out += ", \"end_ns\": " + std::to_string(s.end);
        out += ", \"parent\": " + std::to_string(s.parent);
        out += ", \"unit\": " + std::to_string(s.unit) + "}";
    }
    out += "]}\n";
    return out;
}

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace perfbench
