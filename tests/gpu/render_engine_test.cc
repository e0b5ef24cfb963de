/** @file Unit tests for the timed GPU front-end. */

#include <gtest/gtest.h>

#include "gpu/model.h"
#include "gpu/render_engine.h"
#include "render_engine_reference.h"
#include "util/event_queue.h"
#include "util/rng.h"

namespace gpusc::gpu {
namespace {

using namespace gpusc::sim_literals;

gfx::FrameScene
quadScene(int w = 256, int h = 256)
{
    gfx::FrameScene s;
    s.damage = gfx::Rect::ofSize(0, 0, w, h);
    s.add(s.damage, true, gfx::PrimTag::Background);
    return s;
}

class RenderEngineTest : public ::testing::Test
{
  protected:
    EventQueue eq_;
    RenderEngine engine_{eq_, adrenoModel(650), 1};
};

TEST_F(RenderEngineTest, StartsAtZero)
{
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i)
        EXPECT_EQ(engine_.read(SelectedCounter(i)), 0u);
    EXPECT_FALSE(engine_.busyNow());
}

TEST_F(RenderEngineTest, CountersAccumulateAfterCompletion)
{
    const SimTime end = engine_.submit(quadScene());
    EXPECT_GT(end, eq_.now());
    eq_.runUntil(end + 1_ms);
    EXPECT_EQ(engine_.read(LRZ_VISIBLE_PIXEL_AFTER_LRZ),
              256u * 256u);
    EXPECT_EQ(engine_.read(VPC_PC_PRIMITIVES), 2u);
    EXPECT_EQ(engine_.framesRendered(), 1u);
}

TEST_F(RenderEngineTest, MidFrameReadSplitsButSumsExactly)
{
    const SimTime start = eq_.now();
    const SimTime end = engine_.submit(quadScene(1024, 1024));
    ASSERT_GT((end - start).ns(), 4); // long enough to bisect
    // Read halfway through the render.
    eq_.runUntil(start + (end - start) / 2);
    const CounterTotals mid = engine_.readAll();
    EXPECT_GT(mid[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 0u);
    EXPECT_LT(mid[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 1024u * 1024u);
    // After completion the pieces sum to the exact total.
    eq_.runUntil(end + 1_ms);
    EXPECT_EQ(engine_.read(LRZ_VISIBLE_PIXEL_AFTER_LRZ),
              1024u * 1024u);
}

TEST_F(RenderEngineTest, ReadsAreMonotonic)
{
    engine_.submit(quadScene());
    std::uint64_t prev = 0;
    for (int i = 0; i < 20; ++i) {
        eq_.runUntil(eq_.now() + SimTime::fromUs(100));
        const std::uint64_t v =
            engine_.read(RAS_SUPERTILE_ACTIVE_CYCLES);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST_F(RenderEngineTest, JobsSerializeOnTheGpu)
{
    const SimTime end1 = engine_.submit(quadScene());
    const SimTime end2 = engine_.submit(quadScene());
    EXPECT_GT(end2, end1); // second job queues behind the first
    EXPECT_TRUE(engine_.busyNow());
}

TEST_F(RenderEngineTest, EmptySceneIsIgnored)
{
    const SimTime end = engine_.submit(gfx::FrameScene{});
    EXPECT_EQ(end, eq_.now());
    EXPECT_EQ(engine_.framesRendered(), 0u);
}

TEST_F(RenderEngineTest, ComputeJobsOccupyTimeWithoutCounters)
{
    const SimTime end = engine_.submitCompute(5_ms);
    EXPECT_EQ(end, eq_.now() + 5_ms);
    EXPECT_TRUE(engine_.busyNow());
    eq_.runUntil(end + 1_ms);
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i)
        EXPECT_EQ(engine_.read(SelectedCounter(i)), 0u);
    EXPECT_EQ(engine_.totalBusyTime(), 5_ms);
}

TEST_F(RenderEngineTest, BusyPercentReflectsLoad)
{
    eq_.runUntil(200_ms);
    EXPECT_NEAR(engine_.busyPercent(), 0.0, 1e-9);
    engine_.submitCompute(50_ms); // half of the 100ms window
    eq_.runUntil(eq_.now() + 100_ms);
    EXPECT_NEAR(engine_.busyPercent(), 50.0, 5.0);
}

TEST_F(RenderEngineTest, IdenticalScenesHitTheCache)
{
    // Same content twice: both render (counters double) even though
    // the pipeline work is memoised.
    const auto s = quadScene();
    const SimTime e1 = engine_.submit(s);
    eq_.runUntil(e1 + 1_ms);
    const SimTime e2 = engine_.submit(s);
    eq_.runUntil(e2 + 1_ms);
    EXPECT_EQ(engine_.read(LRZ_VISIBLE_PIXEL_AFTER_LRZ),
              2u * 256u * 256u);
}

TEST_F(RenderEngineTest, NoisePerturbsOnlyActiveCounters)
{
    engine_.setNoiseSigma(3.0);
    const SimTime end = engine_.submit(quadScene());
    eq_.runUntil(end + 1_ms);
    // Counters that were zero in the scene stay exactly zero.
    EXPECT_EQ(engine_.read(LRZ_FULL_8X8_TILES), 0u);
    // Active counters stay in a tight band around the true value.
    const auto pix = engine_.read(LRZ_VISIBLE_PIXEL_AFTER_LRZ);
    EXPECT_NEAR(double(pix), 256.0 * 256.0, 30.0);
}

TEST_F(RenderEngineTest, NoiseIsSeedDeterministic)
{
    EventQueue eqA, eqB;
    RenderEngine a(eqA, adrenoModel(650), 99);
    RenderEngine b(eqB, adrenoModel(650), 99);
    a.setNoiseSigma(2.0);
    b.setNoiseSigma(2.0);
    const SimTime ea = a.submit(quadScene());
    const SimTime eb = b.submit(quadScene());
    eqA.runUntil(ea + 1_ms);
    eqB.runUntil(eb + 1_ms);
    EXPECT_EQ(a.readAll(), b.readAll());
}

TEST_F(RenderEngineTest, LargerScenesTakeLonger)
{
    EventQueue eq2;
    RenderEngine e2(eq2, adrenoModel(650), 1);
    const SimTime small = e2.submit(quadScene(64, 64)) - eq2.now();
    eq2.runUntil(eq2.now() + 1_s);
    const SimTime big =
        e2.submit(quadScene(1024, 1024)) - eq2.now();
    EXPECT_GT(big, small);
}

/** A few opaque and translucent quads in a random damage box. */
gfx::FrameScene
randomScene(Rng &rng)
{
    gfx::FrameScene s;
    s.damage = gfx::Rect::ofSize(int(rng.uniformInt(0, 200)),
                                 int(rng.uniformInt(0, 200)),
                                 int(rng.uniformInt(8, 400)),
                                 int(rng.uniformInt(8, 400)));
    const int n = int(rng.uniformInt(1, 6));
    for (int i = 0; i < n; ++i)
        s.add(gfx::Rect::ofSize(int(rng.uniformInt(0, 500)),
                                int(rng.uniformInt(0, 500)),
                                int(rng.uniformInt(1, 300)),
                                int(rng.uniformInt(1, 300))),
              rng.bernoulli(0.7), gfx::PrimTag::AppContent);
    return s;
}

/** Every read the engine serves, against the reference's job walk. */
void
expectSameReads(RenderEngine &fast, ref::RenderEngine &slow,
                SimTime now)
{
    ASSERT_EQ(fast.readAll(), slow.readAll()) << "at " << now.ns();
    for (int pid = 0; pid < 4; ++pid)
        ASSERT_EQ(fast.readLocal(pid), slow.readLocal(pid))
            << "pid " << pid << " at " << now.ns();
    ASSERT_EQ(fast.busyPercent(), slow.busyPercent())
        << "at " << now.ns();
}

/**
 * Seeded random schedules: renders from several pids and compute
 * jobs, with noise on in half of them, read at random times — mid
 * job, on exact job boundaries, and after gaps longer than the
 * reference's 500 ms retire age. The running-sum reads must equal
 * the reference's walk over every job at every step.
 */
TEST(RenderEngineReferenceTest, RandomSchedulesReadLikeTheJobWalk)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        EventQueue eq;
        RenderEngine fast(eq, adrenoModel(640), seed);
        ref::RenderEngine slow(eq, adrenoModel(640), seed);
        const double sigma = seed % 2 ? 2.5 : 0.0;
        fast.setNoiseSigma(sigma);
        slow.setNoiseSigma(sigma);
        SimTime lastEnd;
        for (int step = 0; step < 300; ++step) {
            const std::int64_t op = rng.uniformInt(0, 11);
            if (op < 4) {
                const gfx::FrameScene s = randomScene(rng);
                const int pid = int(rng.uniformInt(0, 3));
                lastEnd = fast.submit(s, pid);
                ASSERT_EQ(lastEnd, slow.submit(s, pid));
            } else if (op == 4) {
                const SimTime d = SimTime::fromUs(rng.uniformInt(0, 900));
                lastEnd = fast.submitCompute(d);
                ASSERT_EQ(lastEnd, slow.submitCompute(d));
            } else if (op == 5 && lastEnd > eq.now()) {
                eq.runUntil(lastEnd); // exactly on a job end
            } else if (op == 6) {
                eq.runUntil(eq.now() + SimTime::fromMs(
                                           rng.uniformInt(501, 1500)));
            } else {
                eq.runUntil(eq.now() +
                            SimTime::fromUs(rng.uniformInt(0, 400)));
            }
            expectSameReads(fast, slow, eq.now());
        }
    }
}

} // namespace
} // namespace gpusc::gpu
