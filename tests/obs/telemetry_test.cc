/** @file Unit tests for the Telemetry context and StageTimer. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "obs/telemetry.h"

namespace gpusc::obs {
namespace {

TEST(StageTimerTest, DefaultConstructedTimerIsInert)
{
    const StageTimer t;
    EXPECT_FALSE(t.enabled());
    // Scopes and notes on a disabled timer must be harmless no-ops.
    {
        const StageTimer::Scope s = t.scoped(SimTime::fromMs(1));
    }
    t.note(SimTime::fromMs(2), 500);
}

TEST(StageTimerTest, NullTelemetryGivesAnInertTimer)
{
    const StageTimer t(nullptr, "attack.classify");
    EXPECT_FALSE(t.enabled());
    t.note(SimTime::fromMs(1), 500);
}

TEST(StageTimerTest, ScopedMeasurementRecordsHistogramAndSpan)
{
    Telemetry tel;
    const StageTimer t(&tel, "attack.classify");
    EXPECT_TRUE(t.enabled());
    {
        const StageTimer::Scope s = t.scoped(SimTime::fromMs(7));
    }
    EXPECT_EQ(tel.metrics.histogram("latency.attack.classify").count(),
              1u);
    EXPECT_EQ(tel.metrics.histogramUnit("latency.attack.classify"),
              "ns");
    ASSERT_EQ(tel.tracer.size(), 1u);
    const Span s = tel.tracer.snapshot()[0];
    EXPECT_EQ(s.at, SimTime::fromMs(7));
    EXPECT_STREQ(s.name, "attack.classify");
    EXPECT_GE(s.hostNs, 0);
}

TEST(StageTimerTest, ScopeEndIsIdempotent)
{
    Telemetry tel;
    const StageTimer t(&tel, "stage");
    StageTimer::Scope s = t.scoped(SimTime::fromMs(1));
    s.end();
    s.end(); // second end must not double-record
    EXPECT_EQ(tel.metrics.histogram("latency.stage").count(), 1u);
    EXPECT_EQ(tel.tracer.size(), 1u);
}

TEST(StageTimerTest, NoteRecordsAPreMeasuredDuration)
{
    Telemetry tel;
    const StageTimer t(&tel, "stage");
    t.note(SimTime::fromMs(3), 1234);
    t.note(SimTime::fromMs(4), -5); // negative clamps to zero
    const LogHistogram &h = tel.metrics.histogram("latency.stage");
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), 1234u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(tel.tracer.recorded(), 2u);
}

TEST(TelemetryTest, MetricsJsonBundlesEverySection)
{
    Telemetry tel;
    tel.metrics.counter("pipeline.keys").inc(2);
    const StageTimer t(&tel, "stage");
    t.note(SimTime::fromMs(1), 10);
    tel.audit.record(SimTime::fromMs(1), Stage::Eavesdropper,
                     Decision::AcceptedKey, "a", 0.5);

    const std::string json = tel.metricsJson();
    for (const char *key :
         {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"funnel\"",
          "\"spans\"", "\"audit\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_NE(json.find("\"pipeline.keys\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"changes_in\": 1"), std::string::npos);
}

TEST(TelemetryTest, RingCapacitiesComeFromParams)
{
    Telemetry::Params p;
    p.spanCapacity = 2;
    p.auditCapacity = 3;
    Telemetry tel(p);
    const StageTimer t(&tel, "stage");
    for (int i = 0; i < 5; ++i) {
        t.note(SimTime::fromMs(i), 1);
        tel.audit.record(SimTime::fromMs(i), Stage::Inference,
                         Decision::NoiseRejected);
    }
    EXPECT_EQ(tel.tracer.size(), 2u);
    EXPECT_EQ(tel.tracer.dropped(), 3u);
    EXPECT_EQ(tel.audit.snapshot().size(), 3u);
    EXPECT_EQ(tel.audit.dropped(), 2u);
    EXPECT_EQ(tel.audit.count(Decision::NoiseRejected), 5u);
}

TEST(TelemetryTest, WriteFileRoundTripsAndFailsCleanly)
{
    const std::string path = ::testing::TempDir() + "telemetry_test." +
                             std::to_string(::getpid()) + ".json";
    EXPECT_TRUE(Telemetry::writeFile(path, "{\"ok\": true}\n"));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "{\"ok\": true}\n");
    std::remove(path.c_str());

    EXPECT_FALSE(Telemetry::writeFile(
        "/nonexistent-dir/gpusc_telemetry_test.json", "x"));
}

} // namespace
} // namespace gpusc::obs
