/** @file Unit tests for GPU model descriptors. */

#include <gtest/gtest.h>

#include "gpu/model.h"

namespace gpusc::gpu {
namespace {

TEST(GpuModelTest, SupportedGenerations)
{
    for (int gen : supportedAdrenoGenerations()) {
        const GpuModel &m = adrenoModel(gen);
        EXPECT_EQ(m.generation, gen);
        EXPECT_EQ(m.name, "Adreno " + std::to_string(gen));
        EXPECT_GT(m.clockMhz, 0.0);
    }
}

TEST(GpuModelTest, GenerationsDiffer)
{
    const GpuModel &a540 = adrenoModel(540);
    const GpuModel &a660 = adrenoModel(660);
    // Parameters must differ so per-model signatures differ.
    EXPECT_NE(a540.superTileW, a660.superTileW);
    EXPECT_NE(a540.rasCyclesPerKiloPixel, a660.rasCyclesPerKiloPixel);
}

TEST(GpuModelTest, LrzAndRasTilesMatchCounterNames)
{
    // The counter names encode 8x8 (LRZ) and 8x4 (RAS) tiles.
    EXPECT_EQ(kLrzTile, 8);
    for (int gen : supportedAdrenoGenerations()) {
        const GpuModel &m = adrenoModel(gen);
        EXPECT_EQ(m.rasTileW, 8);
        EXPECT_EQ(m.rasTileH, 4);
    }
}

TEST(GpuModelTest, RasAndSupertileSidesArePowersOfTwo)
{
    // gpu::Pipeline counts RAS tiles and supertiles by shifting.
    for (int gen : supportedAdrenoGenerations()) {
        const GpuModel &m = adrenoModel(gen);
        for (int side : {m.rasTileW, m.rasTileH, m.superTileW,
                         m.superTileH}) {
            EXPECT_GT(side, 0) << m.name;
            EXPECT_EQ(side & (side - 1), 0) << m.name << ": " << side;
        }
    }
}

TEST(GpuModelTest, RenderCostGrowsWithPixels)
{
    const GpuModel &m = adrenoModel(650);
    EXPECT_GT(m.renderCostUs(1000000), m.renderCostUs(1000));
    EXPECT_GT(m.renderCostUs(0), 0.0); // base cost
}

TEST(GpuModelDeathTest, UnknownGenerationIsFatal)
{
    EXPECT_DEATH((void)adrenoModel(123), "unsupported");
}

} // namespace
} // namespace gpusc::gpu
