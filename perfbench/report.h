/**
 * @file
 * The benchmark's reporting layer: order statistics, the tail
 * percentile rule, failure accounting, metric-name validation, the
 * one-line JSON result, and the in-memory span log written at the end
 * of a traced run. No dependency on the program under test, so the
 * rules here are unit-tested on their own (report_test.cc).
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> v);

/**
 * The fast-decile estimate of repeated measurements: the 90th
 * percentile of @p v when higher is better (rates), the 10th when lower
 * is better (times), interpolated between order statistics; 0 when
 * empty. Interference from other tenants of a shared host only ever
 * slows a unit of work down, so the fast decile tracks the program's
 * own cost while a run's median moves with the host's load.
 */
double fastDecile(std::vector<double> v, bool higherIsBetter);

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr std::size_t kMinTailSamples = 10;

/**
 * Nearest-rank @p p-quantile (0 < p < 1) of @p samples, or nullopt
 * when fewer than kMinTailSamples samples lie beyond it — a tail
 * figure resting on a handful of points is refused, not reported.
 */
std::optional<double> tailPercentile(std::vector<double> samples,
                                     double p);

/** Metric names are `[A-Za-z0-9_.-]+`, at most 64 characters. */
bool validMetricName(const std::string &name);

/** Failed operations over attempted ones. */
struct FailureCount
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(std::uint64_t attempts, std::uint64_t failures)
    {
        attempted += attempts;
        failed += failures;
    }
    /** failed / attempted; 0 when nothing was attempted. */
    double frac() const
    {
        return attempted ? double(failed) / double(attempted) : 0.0;
    }
};

/** One named figure of a run. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered set of metrics with unique, valid names. */
class MetricSet
{
  public:
    /** @return false (and keeps nothing) on a bad or repeated name or
     *  a non-finite value. */
    bool add(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &all() const { return metrics_; }
    const Metric *find(const std::string &name) const;

  private:
    std::vector<Metric> metrics_;
};

/**
 * The result line: exactly {"correct", "attempted", "failed",
 * "metrics"}, each metric as {"value": v, "unit": u}; values carry
 * every significant digit.
 */
std::string resultJson(bool correct, const FailureCount &failures,
                       const MetricSet &metrics);

/** Append @p s as a JSON string literal. */
void appendJsonString(std::string &out, const std::string &s);
/** Append @p v with round-trip precision (non-finite as null). */
void appendJsonNumber(std::string &out, double v);

/**
 * Spans the benchmark records around its calls into each layer: name,
 * host start/end, parent span and the id of the unit of work (trial,
 * file, batch). Kept in memory, written out once at the end.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity = 200000)
        : capacity_(capacity)
    {
    }

    /** @return the span's index, or -1 when the log is full. */
    int add(const std::string &name, std::int64_t startNs,
            std::int64_t endNs, int parent, std::int64_t unitId);

    std::size_t size() const { return spans_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** {"meta": <meta>, "dropped": n, "spans": [...]} */
    std::string json(const std::string &metaJson) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t start;
        std::int64_t end;
        int parent;
        std::int64_t unit;
    };
    std::size_t capacity_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/** FNV-1a over bytes, chained through @p h. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    return fnv1a(s.data(), s.size(), h);
}

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
