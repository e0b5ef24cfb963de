/**
 * @file
 * Golden determinism tests: a live experiment recorded to a trace,
 * then replayed through the detached pipeline, must reproduce the
 * live inference bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "attack/model_store.h"
#include "eval/experiment.h"
#include "trace/trace_replayer.h"
#include "util/logging.h"

namespace gpusc::trace {
namespace {

attack::ModelStore &
store()
{
    static attack::ModelStore s;
    return s;
}

struct RecordedRun
{
    std::string path;
    attack::SignatureModel model;
    std::vector<eval::TrialResult> live;
    std::uint64_t readings = 0;
};

/** Run a live recorded experiment and keep its outputs.
 *  (gtest ASSERTs need a void return, hence the out-parameter.) */
void
recordRun(RecordedRun &run, const std::string &name,
          std::uint64_t seed,
          const std::vector<std::string> &credentials)
{
    run.path = ::testing::TempDir() + name;
    eval::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.recordTracePath = run.path;
    eval::ExperimentRunner runner(cfg, store());
    for (const std::string &cred : credentials)
        run.live.push_back(runner.runTrial(cred));
    run.model = runner.model();
    ASSERT_TRUE(runner.recording()) << "record mode not active";
    run.readings = runner.recordedReadings();
    EXPECT_EQ(runner.finishRecording(), TraceError::None);
}

TEST(TraceReplayTest, ReplayMatchesLiveInferenceExactly)
{
    setVerbose(false);
    RecordedRun run;
    recordRun(run, "golden.gpct", 301,
              {"letmein", "hunter2", "pa55word"});
    if (::testing::Test::HasFatalFailure())
        return;

    TraceReplayer replayer(run.model);
    ASSERT_EQ(replayer.replayFile(run.path), TraceError::None);

    ASSERT_EQ(replayer.trials().size(), run.live.size());
    for (std::size_t i = 0; i < run.live.size(); ++i) {
        EXPECT_EQ(replayer.trials()[i].truth, run.live[i].truth);
        EXPECT_EQ(replayer.trials()[i].inferred, run.live[i].inferred)
            << "replay diverged from live run on trial " << i;
    }
    EXPECT_EQ(replayer.readingsReplayed(), run.readings);
    EXPECT_EQ(replayer.header().seed, 301u);
    std::remove(run.path.c_str());
}

TEST(TraceReplayTest, ReplayResolvesModelFromStoreByDeviceKey)
{
    setVerbose(false);
    RecordedRun run;
    recordRun(run, "bykey.gpct", 302, {"opensesame"});
    if (::testing::Test::HasFatalFailure())
        return;

    // The shared store trained this configuration during recordRun,
    // so the replayer can find the model by the header's device key.
    TraceReplayer replayer(store());
    ASSERT_EQ(replayer.replayFile(run.path), TraceError::None);
    ASSERT_EQ(replayer.trials().size(), 1u);
    EXPECT_EQ(replayer.trials()[0].truth, "opensesame");
    EXPECT_EQ(replayer.trials()[0].inferred, run.live[0].inferred);
    std::remove(run.path.c_str());
}

TEST(TraceReplayTest, ReplayIsIdempotent)
{
    setVerbose(false);
    RecordedRun run;
    recordRun(run, "idem.gpct", 303, {"qwerty12"});
    if (::testing::Test::HasFatalFailure())
        return;

    TraceReplayer replayer(run.model);
    ASSERT_EQ(replayer.replayFile(run.path), TraceError::None);
    const std::string first = replayer.trials()[0].inferred;
    ASSERT_EQ(replayer.replayFile(run.path), TraceError::None);
    EXPECT_EQ(replayer.trials()[0].inferred, first);
    std::remove(run.path.c_str());
}

TEST(TraceReplayTest, OfflineInferenceRecoversKeysFromTrace)
{
    setVerbose(false);
    RecordedRun run;
    recordRun(run, "offline.gpct", 304, {"abcdef"});
    if (::testing::Test::HasFatalFailure())
        return;

    TraceReplayer replayer(run.model);
    TraceError err = TraceError::None;
    const std::vector<attack::InferredKey> keys =
        replayer.inferOffline(run.path, &err);
    EXPECT_EQ(err, TraceError::None);
    EXPECT_FALSE(keys.empty());
    std::remove(run.path.c_str());
}

TEST(TraceReplayTest, RecordedTraceCarriesGroundTruth)
{
    setVerbose(false);
    RecordedRun run;
    recordRun(run, "truth.gpct", 305, {"xyzzy"});
    if (::testing::Test::HasFatalFailure())
        return;

    TraceReader reader;
    ASSERT_EQ(reader.open(run.path), TraceError::None);
    std::uint64_t readings = 0, keyPresses = 0, popups = 0,
                  trialBegins = 0, trialEnds = 0;
    TraceRecord rec;
    bool eof = false;
    while (reader.next(rec, eof) == TraceError::None && !eof) {
        switch (rec.kind) {
          case RecordKind::Reading: ++readings; break;
          case RecordKind::KeyPress: ++keyPresses; break;
          case RecordKind::PopupShow: ++popups; break;
          case RecordKind::TrialBegin:
            ++trialBegins;
            EXPECT_EQ(rec.text, "xyzzy");
            break;
          case RecordKind::TrialEnd: ++trialEnds; break;
          default: break;
        }
    }
    EXPECT_TRUE(eof);
    EXPECT_GT(readings, 0u);
    EXPECT_GE(keyPresses, 5u); // one per credential character
    EXPECT_GE(popups, 5u);
    EXPECT_EQ(trialBegins, 1u);
    EXPECT_EQ(trialEnds, 1u);
    std::remove(run.path.c_str());
}

} // namespace
} // namespace gpusc::trace
