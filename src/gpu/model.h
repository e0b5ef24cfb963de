/**
 * @file
 * Adreno GPU model descriptors.
 *
 * Each descriptor captures the micro-architectural parameters that
 * shape counter values on a given Adreno generation: tile geometries,
 * rasteriser cycle cost, vertex-attribute width and clock. Because per-
 * key signatures are computed from these parameters, different GPU
 * models yield different signatures — which is why the attack carries a
 * classification model per device model (paper §3.2, Fig. 24a).
 */

#ifndef GPUSC_GPU_MODEL_H
#define GPUSC_GPU_MODEL_H

#include <string>
#include <vector>

namespace gpusc::gpu {

/**
 * Side of the square block the LRZ unit tests, in pixels, on every
 * supported generation (the PERF_LRZ_*_8X8_TILES counter names encode
 * it). gpu::Pipeline keeps one 64-bit coverage word per block.
 */
inline constexpr int kLrzTile = 8;

/** Static description of one Adreno GPU generation. */
struct GpuModel
{
    std::string name;         ///< e.g. "Adreno 650"
    int generation = 0;       ///< e.g. 650

    // Tile geometry. The rasteriser works on 8x4 blocks on all
    // supported generations (the counter names encode this); the
    // supertile (bin) size grows with generation.
    int rasTileW = 8;
    int rasTileH = 4;
    int superTileW = 32;
    int superTileH = 32;

    /** Vertex components fetched through VPC per vertex. */
    int spComponentsPerVertex = 8;

    /** Rasteriser active cycles per output pixel (x1000, integer). */
    int rasCyclesPerKiloPixel = 250;

    /** Fixed per-render-job overhead, microseconds. */
    double baseFrameCostUs = 300.0;

    /** Shading cost per pixel, nanoseconds (at nominal clock). */
    double perPixelRenderNs = 1.2;

    /** Nominal clock in MHz; scales render durations. */
    double clockMhz = 600.0;

    /** Render duration for a job covering @p pixels drawn pixels. */
    double
    renderCostUs(std::int64_t pixels) const
    {
        const double scale = 600.0 / clockMhz;
        return (baseFrameCostUs +
                double(pixels) * perPixelRenderNs * 1e-3) * scale;
    }
};

/**
 * Look up the canonical model for an Adreno generation.
 * Supported: 540, 640, 650, 660.
 */
const GpuModel &adrenoModel(int generation);

/** All supported generations, ascending. */
const std::vector<int> &supportedAdrenoGenerations();

} // namespace gpusc::gpu

#endif // GPUSC_GPU_MODEL_H
