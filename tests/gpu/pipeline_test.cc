/** @file Unit tests for the tile-based pipeline counter model. */

#include <gtest/gtest.h>

#include "gpu/model.h"
#include "gpu/pipeline.h"

namespace gpusc::gpu {
namespace {

gfx::FrameScene
sceneWith(std::initializer_list<gfx::Prim> prims,
          gfx::Rect damage = gfx::Rect::ofSize(0, 0, 128, 128))
{
    gfx::FrameScene s;
    s.damage = damage;
    for (const gfx::Prim &p : prims)
        s.add(p.rect, p.opaque, p.tag);
    return s;
}

class PipelineTest : public ::testing::Test
{
  protected:
    Pipeline pipe_{adrenoModel(650)};
};

TEST_F(PipelineTest, EmptySceneIsFree)
{
    const FrameResult r = pipe_.render(gfx::FrameScene{});
    EXPECT_TRUE(isZero(r.deltas));
    EXPECT_EQ(r.rasterizedPixels, 0);
}

TEST_F(PipelineTest, SingleOpaqueQuadCounts)
{
    // A 64x32 quad aligned at the origin.
    const FrameResult r = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(0, 0, 64, 32), true,
          gfx::PrimTag::AppContent}}));
    const auto &d = r.deltas;
    const GpuModel &m = adrenoModel(650);

    EXPECT_EQ(d[VPC_PC_PRIMITIVES], 2); // one quad = two triangles
    EXPECT_EQ(d[VPC_LRZ_ASSIGN_PRIMITIVES], 2);
    EXPECT_EQ(d[VPC_SP_COMPONENTS], 4 * m.spComponentsPerVertex);

    EXPECT_EQ(d[RAS_8X4_TILES], (64 / 8) * (32 / 4));
    EXPECT_EQ(d[RAS_FULLY_COVERED_8X4_TILES], (64 / 8) * (32 / 4));
    EXPECT_EQ(d[RAS_SUPER_TILES],
              gfx::tilesTouched(gfx::Rect::ofSize(0, 0, 64, 32),
                                m.superTileW, m.superTileH));
    EXPECT_EQ(d[RAS_SUPERTILE_ACTIVE_CYCLES],
              64 * 32 * m.rasCyclesPerKiloPixel / 1000);

    // Nothing occludes it: fully visible, no LRZ-killed tiles.
    EXPECT_EQ(d[LRZ_VISIBLE_PRIM_AFTER_LRZ], 2);
    EXPECT_EQ(d[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 64 * 32);
    EXPECT_EQ(d[LRZ_FULL_8X8_TILES], 0);
    EXPECT_EQ(d[LRZ_PARTIAL_8X8_TILES], 0);
    EXPECT_EQ(r.rasterizedPixels, 64 * 32);
}

TEST_F(PipelineTest, FullyOccludedPrimIsCulled)
{
    // Bottom quad completely under an opaque top quad.
    const FrameResult r = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(0, 0, 32, 32), true,
          gfx::PrimTag::Background},
         {gfx::Rect::ofSize(0, 0, 32, 32), true,
          gfx::PrimTag::Popup}}));
    const auto &d = r.deltas;
    // Both rasterise...
    EXPECT_EQ(d[VPC_PC_PRIMITIVES], 4);
    EXPECT_EQ(r.rasterizedPixels, 2 * 32 * 32);
    // ...but only the top one survives LRZ.
    EXPECT_EQ(d[LRZ_VISIBLE_PRIM_AFTER_LRZ], 2);
    EXPECT_EQ(d[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 32 * 32);
    // The occluded prim's 16 8x8 blocks were fully killed.
    EXPECT_EQ(d[LRZ_FULL_8X8_TILES], 16);
    EXPECT_EQ(d[LRZ_PARTIAL_8X8_TILES], 0);
}

TEST_F(PipelineTest, PartialOcclusionCountsPartialTiles)
{
    // Top quad covers the left half of the bottom quad.
    const FrameResult r = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(0, 0, 64, 8), true,
          gfx::PrimTag::Background},
         {gfx::Rect::ofSize(0, 0, 28, 8), true,
          gfx::PrimTag::Popup}}));
    const auto &d = r.deltas;
    // Bottom quad spans 8 8x8 blocks; blocks 0-2 fully occluded,
    // block 3 partially (28 = 3.5 tiles), blocks 4-7 visible.
    EXPECT_EQ(d[LRZ_FULL_8X8_TILES], 3);
    EXPECT_EQ(d[LRZ_PARTIAL_8X8_TILES], 1);
    EXPECT_EQ(d[LRZ_VISIBLE_PRIM_AFTER_LRZ], 4); // both visible
    EXPECT_EQ(d[LRZ_VISIBLE_PIXEL_AFTER_LRZ],
              28 * 8 + (64 - 28) * 8);
}

TEST_F(PipelineTest, TranslucentPrimsDoNotOccludeButAreVisible)
{
    const FrameResult r = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(0, 0, 32, 32), true,
          gfx::PrimTag::Background},
         {gfx::Rect::ofSize(0, 0, 32, 32), false,
          gfx::PrimTag::Popup}})); // translucent shadow on top
    const auto &d = r.deltas;
    // Both prims visible: the shadow does not kill the background.
    EXPECT_EQ(d[LRZ_VISIBLE_PRIM_AFTER_LRZ], 4);
    EXPECT_EQ(d[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 2 * 32 * 32);
    EXPECT_EQ(d[LRZ_FULL_8X8_TILES], 0);
}

TEST_F(PipelineTest, BackToFrontOrderMatters)
{
    // Same two quads, swapped order: the occluded one changes.
    const auto first = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(0, 0, 16, 16), true, gfx::PrimTag::KeyCap},
         {gfx::Rect::ofSize(8, 0, 16, 16), true,
          gfx::PrimTag::Popup}}));
    const auto second = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(8, 0, 16, 16), true, gfx::PrimTag::Popup},
         {gfx::Rect::ofSize(0, 0, 16, 16), true,
          gfx::PrimTag::KeyCap}}));
    // Total visible pixels equal (same union)...
    EXPECT_EQ(first.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ],
              second.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ]);
    // ...but the per-prim visibility assignment differs, which the
    // partial-tile counts expose.
    EXPECT_EQ(first.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 24 * 16);
}

TEST_F(PipelineTest, DamageClipsEverything)
{
    const FrameResult r = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(0, 0, 200, 200), true,
          gfx::PrimTag::Background}},
        gfx::Rect::ofSize(0, 0, 64, 64)));
    EXPECT_EQ(r.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 64 * 64);
    EXPECT_EQ(r.rasterizedPixels, 64 * 64);
}

TEST_F(PipelineTest, TileAlignmentChangesSignature)
{
    // The same content at x and x+3: RAS tile counts differ because
    // grid alignment differs — position leaks into the counters.
    const auto at0 = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(0, 0, 30, 12), true,
          gfx::PrimTag::Popup}}));
    const auto at3 = pipe_.render(sceneWith(
        {{gfx::Rect::ofSize(3, 0, 30, 12), true,
          gfx::PrimTag::Popup}}));
    EXPECT_EQ(at0.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ],
              at3.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ]);
    EXPECT_NE(at0.deltas[RAS_8X4_TILES], at3.deltas[RAS_8X4_TILES]);
}

TEST_F(PipelineTest, DeterministicAcrossCalls)
{
    const auto scene = sceneWith(
        {{gfx::Rect::ofSize(5, 7, 50, 40), true,
          gfx::PrimTag::KeyCap},
         {gfx::Rect::ofSize(20, 10, 30, 30), true,
          gfx::PrimTag::Popup}});
    const auto a = pipe_.render(scene);
    const auto b = pipe_.render(scene);
    EXPECT_EQ(a.deltas, b.deltas);
}

TEST_F(PipelineTest, ModelTileSizesShapeCounts)
{
    // Different Adreno generations count supertiles differently.
    Pipeline p540{adrenoModel(540)};
    Pipeline p650{adrenoModel(650)};
    const auto scene = sceneWith(
        {{gfx::Rect::ofSize(0, 0, 128, 128), true,
          gfx::PrimTag::Background}});
    const auto a = p540.render(scene);
    const auto b = p650.render(scene);
    EXPECT_GT(a.deltas[RAS_SUPER_TILES], b.deltas[RAS_SUPER_TILES]);
    EXPECT_NE(a.deltas[RAS_SUPERTILE_ACTIVE_CYCLES],
              b.deltas[RAS_SUPERTILE_ACTIVE_CYCLES]);
}

TEST(PipelineDeathTest, NonPowerOfTwoTileSideIsFatal)
{
    // RAS and supertile counts are shifts, so a model whose sides are
    // not powers of two is refused rather than miscounted.
    GpuModel m = adrenoModel(650);
    m.superTileW = 48;
    EXPECT_DEATH(Pipeline{m}, "not a power of two");
    m = adrenoModel(650);
    m.rasTileH = 0;
    EXPECT_DEATH(Pipeline{m}, "not a power of two");
}

} // namespace
} // namespace gpusc::gpu
