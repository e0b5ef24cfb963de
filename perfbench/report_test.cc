/**
 * @file
 * Unit tests of the benchmark's reporting rules (report.h): the tail
 * percentile and its refusal rule, metric-name validation, failure
 * accounting and the schema of the result line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "report.h"

using namespace perfbench;

TEST(TailPercentile, NearestRankOnOneToThousand)
{
    std::vector<double> v(1000);
    std::iota(v.begin(), v.end(), 1.0);
    EXPECT_EQ(*tailPercentile(v, 0.5), 500.0);
    EXPECT_EQ(*tailPercentile(v, 0.99), 990.0);
    EXPECT_EQ(*tailPercentile(v, 0.9), 900.0);
}

TEST(TailPercentile, IgnoresInputOrder)
{
    std::vector<double> v(200);
    std::iota(v.begin(), v.end(), 0.0);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(*tailPercentile(v, 0.9), 179.0);
}

TEST(TailPercentile, RefusesWithFewerThanTenBeyond)
{
    // p99 of 999 samples: rank 990, so only 9 samples lie beyond.
    std::vector<double> v(999, 1.0);
    EXPECT_FALSE(tailPercentile(v, 0.99).has_value());
    v.push_back(1.0); // 1000 samples: exactly 10 beyond
    EXPECT_TRUE(tailPercentile(v, 0.99).has_value());
    EXPECT_FALSE(tailPercentile({1.0, 2.0, 3.0}, 0.5).has_value());
    EXPECT_FALSE(tailPercentile({}, 0.5).has_value());
}

TEST(TailPercentile, RejectsOutOfRangeQuantile)
{
    std::vector<double> v(100, 2.0);
    EXPECT_FALSE(tailPercentile(v, 0.0).has_value());
    EXPECT_FALSE(tailPercentile(v, 1.0).has_value());
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(FastDecile, PicksTheFastEndOfEitherDirection)
{
    std::vector<double> v(11);
    std::iota(v.begin(), v.end(), 0.0); // 0..10
    EXPECT_DOUBLE_EQ(fastDecile(v, true), 9.0);
    EXPECT_DOUBLE_EQ(fastDecile(v, false), 1.0);
    // Interpolates between order statistics on short inputs.
    EXPECT_DOUBLE_EQ(fastDecile({1.0, 2.0}, true), 1.9);
    EXPECT_DOUBLE_EQ(fastDecile({4.0}, false), 4.0);
    EXPECT_EQ(fastDecile({}, true), 0.0);
}

TEST(MetricName, AcceptsTheDocumentedAlphabet)
{
    EXPECT_TRUE(validMetricName("trials_per_s"));
    EXPECT_TRUE(validMetricName("gpu.render_ns_per_px"));
    EXPECT_TRUE(validMetricName("stream-offer.ns_99"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("lag ms"));
    EXPECT_FALSE(validMetricName("a/b"));
    EXPECT_FALSE(validMetricName("x\"y"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}

TEST(MetricSet, RejectsBadNamesDuplicatesAndNonFinite)
{
    MetricSet m;
    EXPECT_TRUE(m.add("setup_s", 1.5, "s"));
    EXPECT_FALSE(m.add("setup_s", 2.0, "s"));
    EXPECT_FALSE(m.add("bad name", 1.0, "s"));
    EXPECT_FALSE(m.add("nan_metric", std::nan(""), "s"));
    EXPECT_FALSE(m.add("inf_metric", INFINITY, "s"));
    ASSERT_EQ(m.all().size(), 1u);
    EXPECT_EQ(m.find("setup_s")->value, 1.5);
    EXPECT_EQ(m.find("missing"), nullptr);
}

TEST(FailureCount, AccumulatesAcrossOperationKinds)
{
    FailureCount f;
    EXPECT_EQ(f.frac(), 0.0);
    f.add(96, 0);   // trials
    f.add(4, 1);    // files: one replay error
    f.add(900, 9);  // readings: shed or evicted
    EXPECT_EQ(f.attempted, 1000u);
    EXPECT_EQ(f.failed, 10u);
    EXPECT_DOUBLE_EQ(f.frac(), 0.01);
}

TEST(ResultJson, HasExactlyTheContractKeys)
{
    MetricSet m;
    m.add("latency_ms", 1.2034, "ms");
    m.add("setup_s", 0.8127, "s");
    FailureCount f;
    f.add(1000, 0);
    EXPECT_EQ(resultJson(true, f, m),
              "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": "
              "1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": "
              "0.8127, \"unit\": \"s\"}}}");
}

TEST(ResultJson, KeepsEveryDigit)
{
    MetricSet m;
    m.add("x", 1.0 / 3.0, "s");
    const std::string out = resultJson(false, FailureCount{}, m);
    EXPECT_NE(out.find("0.3333333333333333,"), std::string::npos);
    EXPECT_NE(out.find("\"correct\": false"), std::string::npos);
}

TEST(SpanLog, KeepsParentsAndCountsDrops)
{
    SpanLog log(3);
    const int root = log.add("round", 0, 100, -1, 0);
    EXPECT_EQ(log.add("trial", 0, 40, root, 7), 1);
    log.add("trial", 40, 90, root, 8);
    EXPECT_EQ(log.add("trial", 90, 100, root, 9), -1);
    EXPECT_EQ(log.dropped(), 1u);
    EXPECT_EQ(log.size(), 3u);
    const std::string json = log.json("{\"seed\": 1}");
    EXPECT_EQ(json.rfind("{\"meta\": {\"seed\": 1}, \"dropped\": 1", 0), 0u);
    EXPECT_NE(json.find("\"end_ns\": 40, \"parent\": 0, \"unit\": 7"),
              std::string::npos);
}
