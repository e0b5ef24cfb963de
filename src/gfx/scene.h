/**
 * @file
 * The draw-list representation consumed by the GPU simulator.
 *
 * A frame is a damage rectangle plus a back-to-front ordered list of
 * primitives. Each primitive is an axis-aligned quad (two triangles in
 * counter terms); glyphs are decomposed into per-row run quads before
 * reaching this level, mirroring how a real UI toolkit batches text as
 * textured quads.
 */

#ifndef GPUSC_GFX_SCENE_H
#define GPUSC_GFX_SCENE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gfx/geometry.h"

namespace gpusc::gfx {

/** What produced a primitive; used in tests and trace output only. */
enum class PrimTag : std::uint8_t
{
    Background,
    KeyCap,
    KeyLabel,
    Popup,
    PopupGlyph,
    TextField,
    TextEcho,
    Cursor,
    StatusBar,
    AppContent,
    Animation,
    Foreign, // background (non-UI) GPU workload
};

/** A single draw primitive: one opaque or translucent quad. */
struct Prim
{
    Rect rect;
    bool opaque = true;
    PrimTag tag = PrimTag::AppContent;
};

/** One frame's worth of GPU work. */
struct FrameScene
{
    /** Region invalidated this frame; prims are clipped against it. */
    Rect damage;
    /** Primitives in back-to-front submission order. */
    std::vector<Prim> prims;

    bool empty() const { return damage.empty() || prims.empty(); }

    /** Append a quad clipped to the damage region (if visible). */
    void
    add(const Rect &r, bool opaque, PrimTag tag)
    {
        Rect clipped = r.intersect(damage);
        if (!clipped.empty())
            prims.push_back(Prim{clipped, opaque, tag});
    }

    /**
     * Append the glyph of @p c scaled into @p box as opaque run quads
     * (gfx::glyphRunRects), clipped to the damage. The runs lie inside
     * the box, so a glyph whose box misses the damage is skipped
     * without being rasterised.
     */
    void addGlyph(char c, const Rect &box, PrimTag tag);

    /** addGlyph for each character of @p text: the first in @p box,
     *  each next one @p pitch pixels to the right. */
    void addText(std::string_view text, Rect box, int pitch,
                 PrimTag tag);

    /**
     * Stable content hash over damage and primitive list; used by the
     * render engine to memoise counter deltas for identical frames.
     */
    std::uint64_t contentHash() const;
};

} // namespace gpusc::gfx

#endif // GPUSC_GFX_SCENE_H
