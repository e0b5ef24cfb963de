#include "gpu/pipeline.h"

#include <bit>

#include "util/logging.h"

namespace gpusc::gpu {

namespace {

static_assert(kLrzTile == 8,
              "one 64-bit occupancy word holds one 8x8 LRZ tile");

// LRZ tiles are anchored at the screen origin. Shifting (not dividing)
// floors, so a coordinate left of or above the origin still maps to
// the tile that holds it.
constexpr int tileOf(int px) { return px >> 3; }
constexpr int inTile(int px) { return px & 7; }

/** Byte with the bits of in-tile columns [lo, hi] set. */
constexpr std::uint64_t
columnBits(int lo, int hi)
{
    return (0xffu << lo) & (0xffu >> (7 - hi));
}

/** Word with the bytes of in-tile rows [lo, hi] set. */
constexpr std::uint64_t
rowBits(int lo, int hi)
{
    return (~0ull << (8 * lo)) & (~0ull >> (8 * (7 - hi)));
}

/** Copies a column byte into every row of a tile word. */
constexpr std::uint64_t kEveryRow = 0x0101010101010101ull;

} // namespace

Pipeline::Pipeline(const GpuModel &model) : model_(model) {}

FrameResult
Pipeline::render(const gfx::FrameScene &scene)
{
    FrameResult res;
    if (scene.empty())
        return res;

    const gfx::Rect dmg = scene.damage;
    auto &d = res.deltas;

    // --- Front-end (VPC) and rasteriser (RAS): order independent, no
    // occlusion knowledge.
    for (const gfx::Prim &p : scene.prims) {
        const gfx::Rect r = p.rect.intersect(dmg);
        if (r.empty())
            continue;
        d[VPC_PC_PRIMITIVES] += 2;
        d[VPC_LRZ_ASSIGN_PRIMITIVES] += 2;
        d[VPC_SP_COMPONENTS] += 4 * model_.spComponentsPerVertex;

        d[RAS_8X4_TILES] +=
            gfx::tilesTouched(r, model_.rasTileW, model_.rasTileH);
        d[RAS_FULLY_COVERED_8X4_TILES] +=
            gfx::tilesFullyCovered(r, model_.rasTileW, model_.rasTileH);
        d[RAS_SUPER_TILES] +=
            gfx::tilesTouched(r, model_.superTileW, model_.superTileH);
        d[RAS_SUPERTILE_ACTIVE_CYCLES] +=
            r.area() * model_.rasCyclesPerKiloPixel / 1000;
        res.rasterizedPixels += r.area();
    }

    // --- LRZ pass: walk primitives front-to-back against the opaque
    // coverage accumulated from layers above. Per primitive, the LRZ
    // unit tests each 8x8 block of its footprint: fully occluded
    // blocks are killed (PERF_LRZ_FULL_8X8_TILES), partially occluded
    // blocks are trimmed (PERF_LRZ_PARTIAL_8X8_TILES); surviving
    // pixels/prims feed the VISIBLE counters. This is the stage where
    // GPU *overdraw* becomes measurable (paper §2.2).
    //
    // Bit row * 8 + col of a tile's occupancy word is set once opaque
    // geometry above covers that pixel.
    const int gx0 = tileOf(dmg.x0);
    const int gy0 = tileOf(dmg.y0);
    const std::size_t gw = std::size_t(tileOf(dmg.x1 - 1) - gx0 + 1);
    const std::size_t gh = std::size_t(tileOf(dmg.y1 - 1) - gy0 + 1);
    occupancy_.assign(gw * gh, 0);
    for (auto it = scene.prims.rbegin(); it != scene.prims.rend(); ++it) {
        const gfx::Rect r = it->rect.intersect(dmg);
        if (r.empty())
            continue;
        const bool opaque = it->opaque;
        std::int64_t occluded = 0;
        // Tests the @p area footprint pixels @p fp of one tile. Only a
        // partially occluded tile needs a popcount.
        auto testTile = [&](std::uint64_t &occ, std::uint64_t fp,
                            int area) {
            const std::uint64_t hit = occ & fp;
            if (opaque)
                occ |= fp;
            if (hit == 0)
                return;
            if (hit == fp) {
                d[LRZ_FULL_8X8_TILES] += 1;
                occluded += area;
            } else {
                d[LRZ_PARTIAL_8X8_TILES] += 1;
                occluded += std::popcount(hit);
            }
        };
        const int tx0 = tileOf(r.x0);
        const int tx1 = tileOf(r.x1 - 1);
        const int ty0 = tileOf(r.y0);
        const int ty1 = tileOf(r.y1 - 1);
        // Columns of the first and the last tile column; a primitive
        // within one tile column has only the first. Tiles between
        // them are covered across their full width.
        const int cx0 = inTile(r.x0);
        const int cx1 = inTile(r.x1 - 1);
        const int firstHi = tx0 == tx1 ? cx1 : 7;
        const std::uint64_t firstCols =
            columnBits(cx0, firstHi) * kEveryRow;
        const std::uint64_t lastCols = columnBits(0, cx1) * kEveryRow;
        for (int ty = ty0; ty <= ty1; ++ty) {
            const int lo = ty == ty0 ? inTile(r.y0) : 0;
            const int hi = ty == ty1 ? inTile(r.y1 - 1) : 7;
            const std::uint64_t rows = rowBits(lo, hi);
            const int h = hi - lo + 1;
            std::uint64_t *line = occupancy_.data() +
                std::size_t(ty - gy0) * gw + std::size_t(tx0 - gx0);
            testTile(line[0], firstCols & rows, (firstHi - cx0 + 1) * h);
            if (tx1 == tx0)
                continue;
            for (int i = 1; i < tx1 - tx0; ++i)
                testTile(line[i], rows, kLrzTile * h);
            testTile(line[tx1 - tx0], lastCols & rows, (cx1 + 1) * h);
        }
        const std::int64_t visible = r.area() - occluded;
        if (visible > 0) {
            d[LRZ_VISIBLE_PRIM_AFTER_LRZ] += 2;
            d[LRZ_VISIBLE_PIXEL_AFTER_LRZ] += visible;
        }
    }

    return res;
}

} // namespace gpusc::gpu
