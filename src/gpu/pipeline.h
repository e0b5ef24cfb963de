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
 *    supertiles and active cycles regardless of occlusion.
 *  - LRZ: primitives are tested front-to-back against the opaque
 *    coverage accumulated from the layers above; only pixels not
 *    hidden by it survive, producing the occlusion-sensitive counters
 *    the attack keys on (visible prims / visible pixels / full &
 *    partial 8x8 tiles of the rendered output). Coverage is one
 *    64-bit word per kLrzTile x kLrzTile tile of the damage box (bit
 *    row * 8 + col), so a primitive is tested a tile at a time.
 *    tests/gpu/lrz_reference.h keeps the per-pixel loop it replaced
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
    explicit Pipeline(const GpuModel &model);

    /** Render one frame and return the counter deltas it produces. */
    FrameResult render(const gfx::FrameScene &scene);

    const GpuModel &model() const { return model_; }

  private:
    const GpuModel &model_;
    // Opaque coverage of the damage box's LRZ tiles, row-major, one
    // word per tile; reused across frames.
    std::vector<std::uint64_t> occupancy_;
};

} // namespace gpusc::gpu

#endif // GPUSC_GPU_PIPELINE_H
