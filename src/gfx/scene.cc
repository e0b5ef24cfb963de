#include "gfx/scene.h"

#include "gfx/font.h"

namespace gpusc::gfx {

namespace {

void
mix(std::uint64_t &h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

} // namespace

void
FrameScene::addGlyph(char c, const Rect &box, PrimTag tag)
{
    if (!box.intersects(damage))
        return;
    forEachGlyphRun(c, box,
                    [&](const Rect &run) { add(run, true, tag); });
}

void
FrameScene::addText(std::string_view text, Rect box, int pitch,
                    PrimTag tag)
{
    for (char c : text) {
        addGlyph(c, box, tag);
        box = box.translated(pitch, 0);
    }
}

std::uint64_t
FrameScene::contentHash() const
{
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    mix(h, std::uint64_t(std::uint32_t(damage.x0)) << 32 |
               std::uint32_t(damage.y0));
    mix(h, std::uint64_t(std::uint32_t(damage.x1)) << 32 |
               std::uint32_t(damage.y1));
    for (const Prim &p : prims) {
        mix(h, std::uint64_t(std::uint32_t(p.rect.x0)) << 32 |
                   std::uint32_t(p.rect.y0));
        mix(h, std::uint64_t(std::uint32_t(p.rect.x1)) << 32 |
                   std::uint32_t(p.rect.y1));
        mix(h, std::uint64_t(p.opaque) << 8 | std::uint64_t(p.tag));
    }
    return h;
}

} // namespace gpusc::gfx
