/** @file Unit tests for the frame draw-list. */

#include <gtest/gtest.h>

#include <string>

#include "gfx/font.h"
#include "gfx/scene.h"
#include "util/rng.h"

namespace gpusc::gfx {
namespace {

TEST(SceneTest, AddClipsAgainstDamage)
{
    FrameScene s;
    s.damage = Rect::ofSize(0, 0, 100, 100);
    s.add(Rect::ofSize(50, 50, 100, 100), true, PrimTag::AppContent);
    ASSERT_EQ(s.prims.size(), 1u);
    EXPECT_EQ(s.prims[0].rect, (Rect{50, 50, 100, 100}));
}

TEST(SceneTest, AddDropsInvisiblePrims)
{
    FrameScene s;
    s.damage = Rect::ofSize(0, 0, 100, 100);
    s.add(Rect::ofSize(200, 200, 10, 10), true, PrimTag::AppContent);
    EXPECT_TRUE(s.prims.empty());
    EXPECT_TRUE(s.empty());
}

TEST(SceneTest, EmptyDetection)
{
    FrameScene s;
    EXPECT_TRUE(s.empty());
    s.damage = Rect::ofSize(0, 0, 10, 10);
    EXPECT_TRUE(s.empty()); // no prims yet
    s.add(s.damage, true, PrimTag::Background);
    EXPECT_FALSE(s.empty());
}

TEST(SceneTest, HashIsStable)
{
    auto build = [] {
        FrameScene s;
        s.damage = Rect::ofSize(0, 0, 64, 64);
        s.add(Rect::ofSize(1, 2, 3, 4), true, PrimTag::KeyCap);
        s.add(Rect::ofSize(5, 6, 7, 8), false, PrimTag::Popup);
        return s;
    };
    EXPECT_EQ(build().contentHash(), build().contentHash());
}

TEST(SceneTest, HashSensitivity)
{
    FrameScene base;
    base.damage = Rect::ofSize(0, 0, 64, 64);
    base.add(Rect::ofSize(1, 2, 3, 4), true, PrimTag::KeyCap);

    FrameScene moved = base;
    moved.prims[0].rect = Rect::ofSize(2, 2, 3, 4);
    EXPECT_NE(base.contentHash(), moved.contentHash());

    FrameScene translucent = base;
    translucent.prims[0].opaque = false;
    EXPECT_NE(base.contentHash(), translucent.contentHash());

    FrameScene otherDamage = base;
    otherDamage.damage = Rect::ofSize(0, 0, 32, 64);
    EXPECT_NE(base.contentHash(), otherDamage.contentHash());
}

TEST(SceneTest, HashOrderSensitive)
{
    // Back-to-front order matters for occlusion, so it must matter
    // for the cache key.
    FrameScene a, b;
    a.damage = b.damage = Rect::ofSize(0, 0, 64, 64);
    a.add(Rect::ofSize(0, 0, 10, 10), true, PrimTag::KeyCap);
    a.add(Rect::ofSize(5, 5, 10, 10), true, PrimTag::Popup);
    b.add(Rect::ofSize(5, 5, 10, 10), true, PrimTag::Popup);
    b.add(Rect::ofSize(0, 0, 10, 10), true, PrimTag::KeyCap);
    EXPECT_NE(a.contentHash(), b.contentHash());
}

/** The per-glyph loop the UI code ran before FrameScene::addGlyph. */
void
addGlyphByLoop(FrameScene &s, char c, const Rect &box, PrimTag tag)
{
    for (const Rect &run : glyphRunRects(c, box))
        s.add(run, true, tag);
}

void
expectSamePrims(const FrameScene &a, const FrameScene &b)
{
    ASSERT_EQ(a.prims.size(), b.prims.size());
    for (std::size_t i = 0; i < a.prims.size(); ++i) {
        EXPECT_EQ(a.prims[i].rect, b.prims[i].rect) << i;
        EXPECT_EQ(a.prims[i].opaque, b.prims[i].opaque) << i;
        EXPECT_EQ(a.prims[i].tag, b.prims[i].tag) << i;
    }
    EXPECT_EQ(a.contentHash(), b.contentHash());
}

TEST(SceneGlyphTest, AddGlyphMatchesTheRunLoop)
{
    Rng rng(7);
    const std::string chars = fontCharset() + " \x01";
    for (int i = 0; i < 4000; ++i) {
        FrameScene fast, slow;
        fast.damage = slow.damage =
            Rect::ofSize(int(rng.uniformInt(0, 300)),
                         int(rng.uniformInt(0, 300)),
                         int(rng.uniformInt(0, 200)),
                         int(rng.uniformInt(0, 200)));
        const char c = chars[std::size_t(
            rng.uniformInt(0, std::int64_t(chars.size()) - 1))];
        // Boxes inside, straddling and wholly outside the damage.
        const Rect box = Rect::ofSize(int(rng.uniformInt(-50, 550)),
                                      int(rng.uniformInt(-50, 550)),
                                      int(rng.uniformInt(-2, 60)),
                                      int(rng.uniformInt(-2, 80)));
        fast.addGlyph(c, box, PrimTag::KeyLabel);
        addGlyphByLoop(slow, c, box, PrimTag::KeyLabel);
        expectSamePrims(fast, slow);
    }
}

TEST(SceneGlyphTest, AddTextMatchesPerCharacterBoxes)
{
    FrameScene fast, slow;
    fast.damage = slow.damage = Rect::ofSize(40, 0, 90, 40);
    const std::string text = "12:30 quick Brown fox";
    const Rect first = Rect::ofSize(3, 5, 10, 14);
    fast.addText(text, first, 12, PrimTag::StatusBar);
    for (std::size_t i = 0; i < text.size(); ++i)
        addGlyphByLoop(slow, text[i],
                       first.translated(int(i) * 12, 0),
                       PrimTag::StatusBar);
    expectSamePrims(fast, slow);
    EXPECT_FALSE(fast.prims.empty());
}

TEST(SceneGlyphTest, GlyphsMissingTheDamageAddNothing)
{
    FrameScene s;
    s.damage = Rect::ofSize(100, 100, 50, 50);
    s.addText("WWWWWWWW", Rect::ofSize(0, 0, 10, 14), 12,
              PrimTag::KeyLabel);
    s.addGlyph('M', Rect::ofSize(150, 100, 10, 14), PrimTag::Popup);
    EXPECT_TRUE(s.prims.empty());
    s.addGlyph('M', Rect::ofSize(145, 95, 10, 14), PrimTag::Popup);
    EXPECT_FALSE(s.prims.empty());
    for (const Prim &p : s.prims)
        EXPECT_TRUE(s.damage.contains(p.rect));
}

} // namespace
} // namespace gpusc::gfx
