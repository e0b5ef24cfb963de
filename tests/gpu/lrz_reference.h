/**
 * @file
 * The reference the pipeline tests compare gpu::Pipeline against.
 *
 * This is the render pass gpu::Pipeline ran before its LRZ coverage
 * became one 64-bit word per 8x8 tile: one byte of coverage per damage
 * pixel, every primitive's footprint walked pixel by pixel. Keep it
 * boring — its counter values ARE the contract, so the loops stay as
 * they were rather than getting faster.
 */

#ifndef GPUSC_TESTS_GPU_LRZ_REFERENCE_H
#define GPUSC_TESTS_GPU_LRZ_REFERENCE_H

#include <cstdint>
#include <vector>

#include "gfx/scene.h"
#include "gpu/counters.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"

namespace gpusc::gpu::ref {

/** gpu::Pipeline::render of @p scene on @p model, a pixel at a time. */
inline FrameResult
render(const GpuModel &model, const gfx::FrameScene &scene)
{
    constexpr std::uint8_t kOccluded = 1u << 0;

    FrameResult res;
    if (scene.empty())
        return res;

    const gfx::Rect dmg = scene.damage;
    const int dw = dmg.width();
    const int dh = dmg.height();
    std::vector<std::uint8_t> mask(std::size_t(dw) * std::size_t(dh), 0);

    auto &d = res.deltas;

    for (const gfx::Prim &p : scene.prims) {
        const gfx::Rect r = p.rect.intersect(dmg);
        if (r.empty())
            continue;
        d[VPC_PC_PRIMITIVES] += 2;
        d[VPC_LRZ_ASSIGN_PRIMITIVES] += 2;
        d[VPC_SP_COMPONENTS] += 4 * model.spComponentsPerVertex;

        d[RAS_8X4_TILES] +=
            gfx::tilesTouched(r, model.rasTileW, model.rasTileH);
        d[RAS_FULLY_COVERED_8X4_TILES] +=
            gfx::tilesFullyCovered(r, model.rasTileW, model.rasTileH);
        d[RAS_SUPER_TILES] +=
            gfx::tilesTouched(r, model.superTileW, model.superTileH);
        d[RAS_SUPERTILE_ACTIVE_CYCLES] +=
            r.area() * model.rasCyclesPerKiloPixel / 1000;
        res.rasterizedPixels += r.area();
    }

    const int tw = kLrzTile;
    const int th = kLrzTile;
    for (auto it = scene.prims.rbegin(); it != scene.prims.rend(); ++it) {
        const gfx::Rect r = it->rect.intersect(dmg);
        if (r.empty())
            continue;
        std::int64_t visible = 0;
        const int ty0 = r.y0 / th;
        const int ty1 = (r.y1 - 1) / th;
        const int tx0 = r.x0 / tw;
        const int tx1 = (r.x1 - 1) / tw;
        for (int ty = ty0; ty <= ty1; ++ty) {
            for (int tx = tx0; tx <= tx1; ++tx) {
                const gfx::Rect block =
                    gfx::Rect::ofSize(tx * tw, ty * th, tw, th)
                        .intersect(r);
                int occluded = 0;
                int total = 0;
                for (int y = block.y0; y < block.y1; ++y) {
                    std::uint8_t *row = mask.data() +
                        std::size_t(y - dmg.y0) * dw +
                        (block.x0 - dmg.x0);
                    const int w = block.width();
                    if (it->opaque) {
                        for (int x = 0; x < w; ++x) {
                            if (row[x] & kOccluded) {
                                ++occluded;
                            } else {
                                row[x] |= kOccluded;
                            }
                        }
                    } else {
                        for (int x = 0; x < w; ++x)
                            if (row[x] & kOccluded)
                                ++occluded;
                    }
                    total += w;
                }
                visible += total - occluded;
                if (occluded == total)
                    d[LRZ_FULL_8X8_TILES] += 1;
                else if (occluded > 0)
                    d[LRZ_PARTIAL_8X8_TILES] += 1;
            }
        }
        if (visible > 0) {
            d[LRZ_VISIBLE_PRIM_AFTER_LRZ] += 2;
            d[LRZ_VISIBLE_PIXEL_AFTER_LRZ] += visible;
        }
    }

    return res;
}

} // namespace gpusc::gpu::ref

#endif // GPUSC_TESTS_GPU_LRZ_REFERENCE_H
