/**
 * @file
 * Property sweeps over randomly generated scenes: invariants the
 * pipeline must hold for *any* draw list, independent of content.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "lrz_reference.h"
#include "util/rng.h"

namespace gpusc::gpu {
namespace {

/**
 * A random frame: damage boxes on and off the 8-pixel LRZ grid, some
 * smaller than one tile; quads of any size, 1x1 and screen-sized
 * quads; quads overhanging the damage, stored unclipped so that the
 * pipeline's own clip runs; translucent quads over opaque ones.
 */
gfx::FrameScene
randomScene(Rng &rng, int maxPrims)
{
    gfx::FrameScene s;
    const bool small = rng.bernoulli(0.15);
    const int w = small ? 1 + int(rng.uniformInt(0, 15))
                        : 64 + int(rng.uniformInt(0, 400));
    const int h = small ? 1 + int(rng.uniformInt(0, 15))
                        : 64 + int(rng.uniformInt(0, 400));
    s.damage = gfx::Rect::ofSize(int(rng.uniformInt(0, 50)),
                                 int(rng.uniformInt(0, 50)), w, h);
    const gfx::Rect &dmg = s.damage;
    const int prims = 1 + int(rng.uniformInt(0, maxPrims - 1));
    for (int i = 0; i < prims; ++i) {
        const bool opaque = rng.bernoulli(0.8);
        const double kind = rng.uniform();
        if (kind < 0.1) {
            s.add(gfx::Rect::ofSize(
                      dmg.x0 + int(rng.uniformInt(0, w - 1)),
                      dmg.y0 + int(rng.uniformInt(0, h - 1)), 1, 1),
                  opaque, gfx::PrimTag::AppContent);
        } else if (kind < 0.15) {
            s.prims.push_back(gfx::Prim{gfx::Rect{0, 0, 1440, 3200},
                                        opaque, gfx::PrimTag::AppContent});
        } else if (kind < 0.3) {
            // Any position that still meets the damage box.
            const int pw = 1 + int(rng.uniformInt(0, w + 40));
            const int ph = 1 + int(rng.uniformInt(0, h + 40));
            const int px = int(rng.uniformInt(dmg.x0 - pw + 1, dmg.x1 - 1));
            const int py = int(rng.uniformInt(dmg.y0 - ph + 1, dmg.y1 - 1));
            s.prims.push_back(gfx::Prim{gfx::Rect::ofSize(px, py, pw, ph),
                                        opaque, gfx::PrimTag::AppContent});
        } else if (kind < 0.4 && !s.prims.empty()) {
            s.prims.push_back(gfx::Prim{s.prims.back().rect, false,
                                        gfx::PrimTag::AppContent});
        } else {
            const int pw = 1 + int(rng.uniformInt(0, w));
            const int ph = 1 + int(rng.uniformInt(0, h));
            const int px =
                dmg.x0 + int(rng.uniformInt(-20, std::int64_t(w)));
            const int py =
                dmg.y0 + int(rng.uniformInt(-20, std::int64_t(h)));
            s.add(gfx::Rect::ofSize(px, py, pw, ph), opaque,
                  gfx::PrimTag::AppContent);
        }
    }
    return s;
}

class ScenePropertySweep : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    Pipeline pipe_{adrenoModel(650)};
};

TEST_P(ScenePropertySweep, VisibleNeverExceedsRasterized)
{
    Rng rng(GetParam());
    for (int round = 0; round < 20; ++round) {
        const auto scene = randomScene(rng, 40);
        const FrameResult r = pipe_.render(scene);
        EXPECT_LE(r.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ],
                  r.rasterizedPixels);
        EXPECT_LE(r.deltas[LRZ_VISIBLE_PRIM_AFTER_LRZ],
                  r.deltas[VPC_PC_PRIMITIVES]);
    }
}

TEST_P(ScenePropertySweep, OpaqueVisiblePixelsBoundedByDamage)
{
    // For fully opaque scenes every pixel is won by exactly one prim,
    // so visible pixels cannot exceed the damage area. (Translucent
    // prims do not occlude, so stacks of them legitimately count the
    // same pixel several times — no such bound exists in general.)
    Rng rng(GetParam() ^ 0x1111);
    for (int round = 0; round < 20; ++round) {
        auto scene = randomScene(rng, 40);
        for (auto &p : scene.prims)
            p.opaque = true;
        const FrameResult r = pipe_.render(scene);
        EXPECT_LE(r.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ],
                  scene.damage.area());
    }
}

TEST_P(ScenePropertySweep, FrontEndCountsAreExact)
{
    Rng rng(GetParam() ^ 0x2222);
    for (int round = 0; round < 20; ++round) {
        const auto scene = randomScene(rng, 40);
        const FrameResult r = pipe_.render(scene);
        EXPECT_EQ(r.deltas[VPC_PC_PRIMITIVES],
                  std::int64_t(scene.prims.size()) * 2);
        EXPECT_EQ(r.deltas[VPC_LRZ_ASSIGN_PRIMITIVES],
                  r.deltas[VPC_PC_PRIMITIVES]);
        EXPECT_EQ(r.deltas[VPC_SP_COMPONENTS],
                  std::int64_t(scene.prims.size()) * 4 *
                      adrenoModel(650).spComponentsPerVertex);
    }
}

TEST_P(ScenePropertySweep, LrzKilledTilesBoundedByRasTiles)
{
    Rng rng(GetParam() ^ 0x3333);
    for (int round = 0; round < 20; ++round) {
        const auto scene = randomScene(rng, 40);
        const FrameResult r = pipe_.render(scene);
        // Each prim's 8x8 blocks: full+partial killed blocks can never
        // exceed the total blocks the prims span. Two 8x4 RAS tiles
        // fit in one 8x8 block, so 2x the 8x8 budget bounds RAS too.
        std::int64_t totalBlocks = 0;
        for (const auto &p : scene.prims)
            totalBlocks += gfx::tilesTouched(
                p.rect.intersect(scene.damage), 8, 8);
        EXPECT_LE(r.deltas[LRZ_FULL_8X8_TILES] +
                      r.deltas[LRZ_PARTIAL_8X8_TILES],
                  totalBlocks);
        EXPECT_LE(r.deltas[RAS_FULLY_COVERED_8X4_TILES],
                  r.deltas[RAS_8X4_TILES]);
    }
}

TEST_P(ScenePropertySweep, AllCountersAreNonNegative)
{
    Rng rng(GetParam() ^ 0x4444);
    for (int round = 0; round < 20; ++round) {
        const FrameResult r = pipe_.render(randomScene(rng, 40));
        for (std::int64_t v : r.deltas)
            EXPECT_GE(v, 0);
    }
}

TEST_P(ScenePropertySweep, FullyOpaqueCoverMakesLaterPrimsInvisible)
{
    // Prepend an opaque full-damage quad at the FRONT (end of the
    // list): everything behind it must be fully culled.
    Rng rng(GetParam() ^ 0x5555);
    for (int round = 0; round < 10; ++round) {
        auto scene = randomScene(rng, 20);
        scene.add(scene.damage, true, gfx::PrimTag::Popup);
        const FrameResult r = pipe_.render(scene);
        EXPECT_EQ(r.deltas[LRZ_VISIBLE_PRIM_AFTER_LRZ], 2);
        EXPECT_EQ(r.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ],
                  scene.damage.area());
    }
}

TEST_P(ScenePropertySweep, MatchesPerPixelReferenceOnEveryModel)
{
    // One pipeline per model, kept across rounds, so a frame also
    // reuses the buffers a larger earlier frame left behind.
    std::vector<Pipeline> pipes;
    for (int gen : supportedAdrenoGenerations())
        pipes.emplace_back(adrenoModel(gen));
    Rng rng(GetParam() ^ 0x6666);
    for (int round = 0; round < 100; ++round) {
        const auto scene = randomScene(rng, 40);
        for (Pipeline &pipe : pipes) {
            const FrameResult got = pipe.render(scene);
            const FrameResult want = ref::render(pipe.model(), scene);
            ASSERT_EQ(got.deltas, want.deltas)
                << pipe.model().name << ", round " << round;
            ASSERT_EQ(got.rasterizedPixels, want.rasterizedPixels)
                << pipe.model().name << ", round " << round;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenePropertySweep,
                         ::testing::Values(11, 22, 33, 44, 55));

} // namespace
} // namespace gpusc::gpu
