#include "gpu/pipeline.h"

#include <algorithm>
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

/** Word with bits [lo, hi] set. */
constexpr std::uint64_t
bitRange(int lo, int hi)
{
    return (~0ull << lo) & (~0ull >> (63 - hi));
}

/** log2 of @p side; fatal() unless it is a power of two. */
int
sideShift(const GpuModel &model, const char *what, int side)
{
    if (side <= 0 || !std::has_single_bit(unsigned(side)))
        fatal("gpu::Pipeline: %s %s side %d is not a power of two",
              model.name.c_str(), what, side);
    return std::countr_zero(unsigned(side));
}

/** gfx::tilesTouched of a non-empty @p r on a grid of
 *  (1 << sw) x (1 << sh) tiles. */
std::int64_t
touchedTiles(const gfx::Rect &r, int sw, int sh)
{
    return std::int64_t(((r.x1 - 1) >> sw) - (r.x0 >> sw) + 1) *
           (((r.y1 - 1) >> sh) - (r.y0 >> sh) + 1);
}

/** gfx::tilesFullyCovered of a non-empty @p r on the same grid. */
std::int64_t
coveredTiles(const gfx::Rect &r, int sw, int sh)
{
    const int nx = (r.x1 >> sw) - ((r.x0 + (1 << sw) - 1) >> sw);
    const int ny = (r.y1 >> sh) - ((r.y0 + (1 << sh) - 1) >> sh);
    return nx > 0 && ny > 0 ? std::int64_t(nx) * ny : 0;
}

} // namespace

Pipeline::Pipeline(const GpuModel &model)
    : model_(model),
      ras_{sideShift(model, "RAS tile width", model.rasTileW),
           sideShift(model, "RAS tile height", model.rasTileH)},
      super_{sideShift(model, "supertile width", model.superTileW),
             sideShift(model, "supertile height", model.superTileH)}
{
}

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

        d[RAS_8X4_TILES] += touchedTiles(r, ras_.w, ras_.h);
        d[RAS_FULLY_COVERED_8X4_TILES] +=
            coveredTiles(r, ras_.w, ras_.h);
        d[RAS_SUPER_TILES] += touchedTiles(r, super_.w, super_.h);
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
    // A tile's coverage is ~0 if its `full` bit is set, its occupancy
    // word (bit row * 8 + col set once opaque geometry above covers
    // that pixel) if only its `touched` bit is, and 0 otherwise.
    // Tile coordinates below are relative to the damage box's grid.
    const int gx0 = tileOf(dmg.x0);
    const int gy0 = tileOf(dmg.y0);
    const std::size_t gw = std::size_t(tileOf(dmg.x1 - 1) - gx0 + 1);
    const std::size_t gh = std::size_t(tileOf(dmg.y1 - 1) - gy0 + 1);
    const std::size_t rowWords = (gw + 63) / 64;
    rows_.assign(gh * rowWords, RowWord{0, 0});
    if (occupancy_.size() < gw * gh)
        occupancy_.resize(gw * gh);
    for (auto it = scene.prims.rbegin(); it != scene.prims.rend(); ++it) {
        const gfx::Rect r = it->rect.intersect(dmg);
        if (r.empty())
            continue;
        const bool opaque = it->opaque;
        std::int64_t occluded = 0;
        // Tests the @p area footprint pixels @p fp of tile (tx, ty).
        // Only a partially occluded tile needs a popcount.
        auto testTile = [&](int tx, int ty, std::uint64_t fp, int area) {
            RowWord &w =
                rows_[std::size_t(ty) * rowWords + std::size_t(tx) / 64];
            const std::uint64_t bit = 1ull << (tx & 63);
            if (w.full & bit) {
                d[LRZ_FULL_8X8_TILES] += 1;
                occluded += area;
                return;
            }
            std::uint64_t &occ = occupancy_[std::size_t(ty) * gw +
                                            std::size_t(tx)];
            const std::uint64_t was = w.touched & bit ? occ : 0;
            const std::uint64_t hit = was & fp;
            if (opaque) {
                occ = was | fp;
                w.touched |= bit;
                if (occ == ~0ull)
                    w.full |= bit;
            }
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
        const int tx0 = tileOf(r.x0) - gx0;
        const int tx1 = tileOf(r.x1 - 1) - gx0;
        const int ty0 = tileOf(r.y0) - gy0;
        const int ty1 = tileOf(r.y1 - 1) - gy0;
        // Columns of the first and the last tile column; a primitive
        // within one tile column has only the first. Tiles between
        // them are covered across their full width.
        const int cx0 = inTile(r.x0);
        const int cx1 = inTile(r.x1 - 1);
        const int firstHi = tx0 == tx1 ? cx1 : 7;
        const std::uint64_t firstCols =
            columnBits(cx0, firstHi) * kEveryRow;
        const std::uint64_t lastCols = columnBits(0, cx1) * kEveryRow;
        // The tile columns the primitive covers whole, [fx0, fx1].
        const int fx0 = tileOf(r.x0 + kLrzTile - 1) - gx0;
        const int fx1 = tileOf(r.x1) - 1 - gx0;
        for (int ty = ty0; ty <= ty1; ++ty) {
            const int lo = ty == ty0 ? inTile(r.y0) : 0;
            const int hi = ty == ty1 ? inTile(r.y1 - 1) : 7;
            if (lo == 0 && hi == 7 && fx0 <= fx1) {
                // A full-height row with whole tiles: the edge tiles
                // one at a time, the whole tiles a word at a time.
                // Fully occluded tiles are counted, partly covered
                // ones visited; an opaque primitive fills them all.
                if (tx0 < fx0)
                    testTile(tx0, ty, firstCols,
                             (kLrzTile - cx0) * kLrzTile);
                RowWord *words = rows_.data() + std::size_t(ty) * rowWords;
                const std::uint64_t *occRow =
                    occupancy_.data() + std::size_t(ty) * gw;
                for (int wi = fx0 / 64; wi <= fx1 / 64; ++wi) {
                    const std::uint64_t m =
                        bitRange(std::max(fx0 - 64 * wi, 0),
                                 std::min(fx1 - 64 * wi, 63));
                    RowWord &w = words[wi];
                    const int full = std::popcount(w.full & m);
                    std::uint64_t part = (w.touched ^ w.full) & m;
                    d[LRZ_FULL_8X8_TILES] += full;
                    d[LRZ_PARTIAL_8X8_TILES] += std::popcount(part);
                    occluded += std::int64_t(full) * kLrzTile * kLrzTile;
                    for (; part != 0; part &= part - 1)
                        occluded += std::popcount(
                            occRow[64 * wi + std::countr_zero(part)]);
                    if (opaque) {
                        w.full |= m;
                        w.touched |= m;
                    }
                }
                if (tx1 > fx1)
                    testTile(tx1, ty, lastCols, (cx1 + 1) * kLrzTile);
                continue;
            }
            const std::uint64_t rows = rowBits(lo, hi);
            const int h = hi - lo + 1;
            testTile(tx0, ty, firstCols & rows, (firstHi - cx0 + 1) * h);
            if (tx1 == tx0)
                continue;
            for (int tx = tx0 + 1; tx < tx1; ++tx)
                testTile(tx, ty, rows, kLrzTile * h);
            testTile(tx1, ty, lastCols & rows, (cx1 + 1) * h);
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
