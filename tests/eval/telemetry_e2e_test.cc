/**
 * @file
 * End-to-end contract tests for the telemetry subsystem: observation
 * never perturbs the pipeline (bit-identical inferred output with
 * telemetry on or off, live and replayed) and the exported numbers
 * are internally consistent (the decision funnel partitions the
 * changes that entered Algorithm 1).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "attack/model_store.h"
#include "eval/experiment.h"
#include "obs/telemetry.h"
#include "trace/trace_replayer.h"
#include "util/logging.h"

namespace gpusc::eval {
namespace {

attack::ModelStore &
store()
{
    static attack::ModelStore s;
    return s;
}

std::vector<TrialResult>
runTrials(ExperimentConfig cfg, int n)
{
    ExperimentRunner runner(std::move(cfg), store());
    std::vector<TrialResult> trials;
    runner.runTrials(n, 8, 10, &trials);
    return trials;
}

TEST(TelemetryE2eTest, LiveRunIsBitIdenticalWithTelemetryOn)
{
    setVerbose(false);
    ExperimentConfig off;
    off.seed = 424242;
    const std::vector<TrialResult> plain = runTrials(off, 3);

    obs::Telemetry telemetry;
    ExperimentConfig on;
    on.seed = 424242;
    on.telemetry = &telemetry;
    const std::vector<TrialResult> observed = runTrials(on, 3);

    ASSERT_EQ(plain.size(), observed.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].truth, observed[i].truth) << "trial " << i;
        EXPECT_EQ(plain[i].inferred, observed[i].inferred)
            << "trial " << i;
    }

    // The observed run actually observed something.
    auto &m = telemetry.metrics;
    EXPECT_GT(m.counter("pipeline.readings_in").value(), 0u);
    EXPECT_GT(m.counter("infer.changes_in").value(), 0u);
    EXPECT_GT(m.counter("eval.trials").value(), 0u);
    EXPECT_GT(telemetry.tracer.recorded(), 0u);
}

TEST(TelemetryE2eTest, FunnelPartitionsTheChangesIn)
{
    setVerbose(false);
    struct Case
    {
        std::uint64_t seed;
        int trials;
        std::size_t maxLen;
        double transientErrorProb;
    };
    // The second case is experiment_cli's telemetry smoke (--trials 5
    // --seed 7 --transient-prob 0.05): the sampler retries hundreds
    // of failed ioctls, and no retry may leak into the funnel.
    for (const Case &c :
         {Case{434343, 3, 10, 0.0}, Case{7, 5, 16, 0.05}}) {
        SCOPED_TRACE(c.seed);
        obs::Telemetry telemetry;
        ExperimentConfig cfg;
        cfg.seed = c.seed;
        cfg.faultPlan.transientErrorProb = c.transientErrorProb;
        cfg.telemetry = &telemetry;
        ExperimentRunner runner(cfg, store());
        runner.runTrials(c.trials, 8, c.maxLen);

        // Every change that entered Algorithm 1 received exactly one
        // change-level decision.
        auto &m = telemetry.metrics;
        const std::uint64_t changesIn =
            m.counter("infer.changes_in").value();
        EXPECT_GT(changesIn, 0u);
        EXPECT_EQ(changesIn, telemetry.audit.changesAudited());
        using obs::Decision;
        const auto &audit = telemetry.audit;
        EXPECT_EQ(changesIn,
                  audit.count(Decision::AcceptedKey) +
                      audit.count(Decision::SplitRepaired) +
                      audit.count(Decision::DuplicationDrop) +
                      audit.count(Decision::NoiseRejected) +
                      audit.count(Decision::SuppressedAppSwitch));

        // Registry and audit agree on the acceptance counts: the
        // accepted class splits into direct accepts and split-repairs.
        EXPECT_EQ(m.counter("infer.accepted").value(),
                  audit.count(Decision::AcceptedKey) +
                      audit.count(Decision::SplitRepaired) +
                      audit.count(Decision::SuppressedAppSwitch));
        EXPECT_EQ(m.counter("infer.split_combines").value(),
                  audit.count(Decision::SplitRepaired));
        EXPECT_EQ(m.counter("infer.dup_drops").value(),
                  audit.count(Decision::DuplicationDrop));
        EXPECT_EQ(m.counter("infer.noise").value(),
                  audit.count(Decision::NoiseRejected));
        EXPECT_EQ(m.counter("sampler.transient_retries").value() > 0,
                  c.transientErrorProb > 0.0);
    }
}

TEST(TelemetryE2eTest, ReplayIsBitIdenticalWithTelemetryOn)
{
    setVerbose(false);
    const std::string path = ::testing::TempDir() + "telemetry_e2e." +
                             std::to_string(::getpid()) + ".gpct";

    ExperimentConfig cfg;
    cfg.seed = 454545;
    cfg.recordTracePath = path;
    std::vector<TrialResult> live;
    {
        ExperimentRunner runner(cfg, store());
        runner.runTrials(2, 8, 10, &live);
        ASSERT_EQ(runner.finishRecording(), trace::TraceError::None);
    }

    // The store holds the recorded device's model (trained by the
    // live run above); the replayer finds it through the trace
    // header's device key.
    trace::TraceReplayer off(store());
    ASSERT_EQ(off.replayFile(path), trace::TraceError::None);

    obs::Telemetry telemetry;
    attack::Eavesdropper::Params onParams;
    onParams.telemetry = &telemetry;
    trace::TraceReplayer on(store(), onParams);
    ASSERT_EQ(on.replayFile(path), trace::TraceError::None);

    // Off-replay matches on-replay event for event...
    EXPECT_EQ(off.eavesdropper().inferredText(),
              on.eavesdropper().inferredText());
    ASSERT_EQ(off.trials().size(), on.trials().size());
    for (std::size_t i = 0; i < off.trials().size(); ++i)
        EXPECT_EQ(off.trials()[i].inferred, on.trials()[i].inferred);
    // ...and both match what the live pipeline inferred.
    ASSERT_EQ(on.trials().size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i)
        EXPECT_EQ(on.trials()[i].inferred, live[i].inferred);

    // flushTelemetry() at replay end makes the reading tally exact.
    EXPECT_EQ(telemetry.metrics.counter("pipeline.readings_in").value(),
              on.readingsReplayed());
    std::remove(path.c_str());
}

} // namespace
} // namespace gpusc::eval
