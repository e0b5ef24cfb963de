/**
 * @file
 * A 5x7 bitmap font covering the printable characters evaluated in the
 * paper (Fig. 18: a-z, A-Z, 0-9 and the Gboard symbol rows).
 *
 * Glyph shapes matter here: the attack's per-key signatures arise from
 * the pixel coverage of the popup glyph, so characters must have
 * realistically distinct footprints ('i' thin, 'w' wide, '.' tiny).
 * Glyphs are rasterised into per-row run rectangles which become GPU
 * primitives.
 */

#ifndef GPUSC_GFX_FONT_H
#define GPUSC_GFX_FONT_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gfx/geometry.h"

namespace gpusc::gfx {

/** Number of glyph columns/rows in the bitmap font. */
inline constexpr int kGlyphCols = 5;
inline constexpr int kGlyphRows = 7;

/** One glyph: 7 rows, low 5 bits used, bit 4 = leftmost column. */
struct Glyph
{
    std::array<std::uint8_t, kGlyphRows> rows;
};

/**
 * Look up the glyph for @p c. Characters without a dedicated glyph map
 * to a filled box so they still render deterministically.
 */
const Glyph &glyphFor(char c);

/** @return true if the font has a real (non-fallback) glyph for @p c. */
bool hasGlyph(char c);

/** Number of lit pixels in the 5x7 cell of @p c. */
int glyphPixelCount(char c);

/**
 * Scale the glyph for @p c into @p box and decompose it into one
 * rectangle per horizontal run of lit pixels per row, top row first
 * and left to right. These rectangles are what the UI layer submits
 * to the GPU as primitives; every one lies inside @p box.
 */
std::vector<Rect> glyphRunRects(char c, const Rect &box);

/** Call @p emit with each rectangle of glyphRunRects(c, box), in the
 *  same order, without building a vector. */
template <typename Emit>
void
forEachGlyphRun(char c, const Rect &box, Emit &&emit)
{
    if (box.empty())
        return;
    const Glyph &g = glyphFor(c);
    const int w = box.width();
    const int h = box.height();
    for (int r = 0; r < kGlyphRows; ++r) {
        const int y0 = box.y0 + r * h / kGlyphRows;
        const int y1 = box.y0 + (r + 1) * h / kGlyphRows;
        const unsigned bits = g.rows[std::size_t(r)];
        if (y1 <= y0 || bits == 0)
            continue;
        int col = 0;
        while (col < kGlyphCols) {
            if (!(bits & (1u << (kGlyphCols - 1 - col)))) {
                ++col;
                continue;
            }
            int end = col;
            while (end < kGlyphCols &&
                   (bits & (1u << (kGlyphCols - 1 - end))))
                ++end;
            const int x0 = box.x0 + col * w / kGlyphCols;
            const int x1 = box.x0 + end * w / kGlyphCols;
            if (x1 > x0)
                emit(Rect{x0, y0, x1, y1});
            col = end;
        }
    }
}

/** All characters with dedicated glyphs, in Fig. 18 display order. */
const std::string &fontCharset();

} // namespace gpusc::gfx

#endif // GPUSC_GFX_FONT_H
