/**
 * @file
 * The tile-based rendering pipeline model.
 *
 * Given a frame's draw list, computes the deltas of the 11 selected
 * performance counters the way the hardware stages would:
 *
 *  - VPC: every submitted quad contributes 2 primitives and
 *    4 x spComponentsPerVertex vertex components.
 *  - RAS: rasterisation runs before depth rejection, so every quad
 *    counts its touched 8x4 tiles, fully covered 8x4 tiles, touched
 *    supertiles and active cycles regardless of occlusion. Every
 *    model's tile sides are powers of two, so the counts are shifts
 *    worked out once per pipeline.
 *  - LRZ: primitives are tested front-to-back against the opaque
 *    coverage accumulated from the layers above; only pixels not
 *    hidden by it survive, producing the occlusion-sensitive counters
 *    the attack keys on (visible prims / visible pixels / full &
 *    partial 8x8 tiles of the rendered output). Coverage has two
 *    levels. Each kLrzTile row of the damage box keeps two bitsets,
 *    64 tiles per word: the fully covered tiles and the touched ones.
 *    Only a partly covered tile keeps its 64-bit occupancy word (bit
 *    row * 8 + col). A primitive's full-height tile rows are tested a
 *    word of 64 tiles at a time; its partial top and bottom tile rows
 *    and its partial edge columns are tested a tile at a time.
 *    tests/gpu/lrz_reference.h keeps the per-pixel loop both replaced
 *    as the reference the tests compare against.
 *
 * This is where GPU *overdraw* (paper §2.1) turns into counter values.
 */

#ifndef GPUSC_GPU_PIPELINE_H
#define GPUSC_GPU_PIPELINE_H

#include <cstdint>
#include <vector>

#include "gfx/scene.h"
#include "gpu/counters.h"
#include "gpu/model.h"

namespace gpusc::gpu {

/** Result of running one frame through the pipeline. */
struct FrameResult
{
    CounterVec deltas{};
    /** Pixels actually drawn (post-clip, pre-occlusion, summed over
     *  prims) — drives the render-time/energy model. */
    std::int64_t rasterizedPixels = 0;
};

/** Stateless-per-frame pipeline; owns scratch buffers for reuse. */
class Pipeline
{
  public:
    /** fatal()s unless every RAS and supertile side of @p model is a
     *  power of two. */
    explicit Pipeline(const GpuModel &model);

    /** Render one frame and return the counter deltas it produces. */
    FrameResult render(const gfx::FrameScene &scene);

    const GpuModel &model() const { return model_; }

  private:
    /** log2 of a tile grid's sides. */
    struct TileShift
    {
        int w;
        int h;
    };

    /** 64 consecutive LRZ tiles of one tile row. A full tile is also
     *  touched. */
    struct RowWord
    {
        std::uint64_t full;
        std::uint64_t touched;
    };

    const GpuModel &model_;
    TileShift ras_;
    TileShift super_;
    // The damage box's tile rows, row-major, (columns + 63) / 64
    // words per row; cleared every frame.
    std::vector<RowWord> rows_;
    // One word per LRZ tile, row-major; read only while the tile is
    // touched but not full, so it is never cleared.
    std::vector<std::uint64_t> occupancy_;
};

} // namespace gpusc::gpu

#endif // GPUSC_GPU_PIPELINE_H
