/** @file Unit tests for the 5x7 bitmap font. */

#include <gtest/gtest.h>

#include <set>

#include "gfx/font.h"

namespace gpusc::gfx {
namespace {

TEST(FontTest, CharsetCoversFig18)
{
    // Every character the paper's Fig. 18 evaluates must have a
    // dedicated glyph.
    for (char c : fontCharset())
        EXPECT_TRUE(hasGlyph(c)) << "missing glyph for " << c;
    EXPECT_GE(fontCharset().size(), 78u);
}

TEST(FontTest, SpaceIsEmpty)
{
    EXPECT_EQ(glyphPixelCount(' '), 0);
    EXPECT_TRUE(glyphRunRects(' ', Rect::ofSize(0, 0, 50, 70)).empty());
}

TEST(FontTest, UnknownFallsBackToBox)
{
    EXPECT_FALSE(hasGlyph('\x01'));
    EXPECT_GT(glyphPixelCount('\x01'), 0);
}

TEST(FontTest, TableIsIndexedByCharacterCode)
{
    // The font holds exactly the charset plus space and three extra
    // symbols; every other code (control, DEL, non-ASCII, unused
    // punctuation) is the fallback.
    std::set<char> known(fontCharset().begin(), fontCharset().end());
    known.insert({' ', '%', '=', '_'});
    const Glyph &box = glyphFor('\x01');
    int withGlyph = 0;
    for (int code = -128; code < 128; ++code) {
        const char c = char(code);
        const bool expected = known.contains(c);
        EXPECT_EQ(hasGlyph(c), expected) << code;
        withGlyph += hasGlyph(c);
        if (!expected) {
            EXPECT_EQ(glyphFor(c).rows, box.rows) << code;
        }
    }
    EXPECT_EQ(withGlyph, int(known.size()));
    for (char c : {'~', '[', '\x7f', '\xff', '\x80'})
        EXPECT_FALSE(hasGlyph(c)) << int(c);
}

/** The run decomposition glyphRunRects used when it built its vector
 *  in place, kept verbatim as the reference. */
std::vector<Rect>
referenceRuns(char c, const Rect &box)
{
    std::vector<Rect> runs;
    if (box.empty())
        return runs;
    const Glyph &g = glyphFor(c);
    const int w = box.width();
    const int h = box.height();
    for (int r = 0; r < kGlyphRows; ++r) {
        const int y0 = box.y0 + r * h / kGlyphRows;
        const int y1 = box.y0 + (r + 1) * h / kGlyphRows;
        if (y1 <= y0)
            continue;
        const std::uint8_t bits = g.rows[std::size_t(r)];
        int col = 0;
        while (col < kGlyphCols) {
            if (!(bits & (1 << (kGlyphCols - 1 - col)))) {
                ++col;
                continue;
            }
            int end = col;
            while (end < kGlyphCols &&
                   (bits & (1 << (kGlyphCols - 1 - end))))
                ++end;
            const int x0 = box.x0 + col * w / kGlyphCols;
            const int x1 = box.x0 + end * w / kGlyphCols;
            if (x1 > x0)
                runs.push_back(Rect{x0, y0, x1, y1});
            col = end;
        }
    }
    return runs;
}

TEST(FontTest, RunsMatchTheReferenceAtEverySmallSize)
{
    std::string chars = fontCharset() + " \x01~";
    for (char c : chars)
        for (int w = -1; w <= 24; ++w)
            for (int h = -1; h <= 30; ++h) {
                const Rect box = Rect::ofSize(-7 + w, 13 - h, w, h);
                ASSERT_EQ(glyphRunRects(c, box), referenceRuns(c, box))
                    << c << " " << w << "x" << h;
            }
}

TEST(FontTest, PixelCountsAreRealistic)
{
    // Narrow marks are lighter than wide letters.
    EXPECT_LT(glyphPixelCount('.'), glyphPixelCount('i'));
    EXPECT_LT(glyphPixelCount('i'), glyphPixelCount('w'));
    EXPECT_LT(glyphPixelCount('\''), glyphPixelCount('@'));
}

TEST(FontTest, GlyphShapesAreDistinct)
{
    // Most pairs must differ as bitmaps (required for per-key
    // signatures to separate).
    const std::string &cs = fontCharset();
    int identicalPairs = 0;
    for (std::size_t i = 0; i < cs.size(); ++i)
        for (std::size_t j = i + 1; j < cs.size(); ++j)
            identicalPairs +=
                glyphFor(cs[i]).rows == glyphFor(cs[j]).rows;
    EXPECT_EQ(identicalPairs, 0);
}

TEST(FontTest, RunsStayInsideBox)
{
    const Rect box = Rect::ofSize(100, 200, 45, 63);
    for (char c : fontCharset()) {
        for (const Rect &run : glyphRunRects(c, box)) {
            EXPECT_TRUE(box.contains(run))
                << "run " << run.toString() << " escapes for '" << c
                << "'";
            EXPECT_FALSE(run.empty());
        }
    }
}

TEST(FontTest, RunAreaMatchesPixelCountAtExactScale)
{
    // With a box that is an integer multiple of the 5x7 cell, the
    // total run area must be pixelCount * cellArea exactly.
    const int sx = 6, sy = 9;
    const Rect box = Rect::ofSize(0, 0, kGlyphCols * sx, kGlyphRows * sy);
    for (char c : {'a', 'W', '8', ',', '@'}) {
        std::int64_t area = 0;
        for (const Rect &run : glyphRunRects(c, box))
            area += run.area();
        EXPECT_EQ(area, std::int64_t(glyphPixelCount(c)) * sx * sy)
            << "for '" << c << "'";
    }
}

TEST(FontTest, RunsDoNotOverlap)
{
    const Rect box = Rect::ofSize(0, 0, 50, 70);
    for (char c : {'m', '#', 'Q'}) {
        const auto runs = glyphRunRects(c, box);
        for (std::size_t i = 0; i < runs.size(); ++i)
            for (std::size_t j = i + 1; j < runs.size(); ++j)
                EXPECT_FALSE(runs[i].intersects(runs[j]));
    }
}

TEST(FontTest, EmptyBoxYieldsNoRuns)
{
    EXPECT_TRUE(glyphRunRects('a', Rect{}).empty());
}

TEST(FontTest, TinyBoxStillRenders)
{
    // A 5x7 box renders each lit pixel as a 1x1 run.
    const auto runs = glyphRunRects('i', Rect::ofSize(0, 0, 5, 7));
    std::int64_t area = 0;
    for (const Rect &r : runs)
        area += r.area();
    EXPECT_EQ(area, glyphPixelCount('i'));
}

/** Parameterised: run decomposition is consistent for all charset
 *  characters at several scales. */
class FontScaleSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FontScaleSweep, RunAreaEqualsScaledPixelCount)
{
    const int s = GetParam();
    const Rect box = Rect::ofSize(7, 13, kGlyphCols * s, kGlyphRows * s);
    for (char c : fontCharset()) {
        std::int64_t area = 0;
        for (const Rect &run : glyphRunRects(c, box))
            area += run.area();
        EXPECT_EQ(area, std::int64_t(glyphPixelCount(c)) * s * s)
            << "char '" << c << "' scale " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, FontScaleSweep,
                         ::testing::Values(1, 2, 3, 5, 9, 16));

} // namespace
} // namespace gpusc::gfx
