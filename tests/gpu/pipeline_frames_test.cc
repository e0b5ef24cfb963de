/**
 * @file
 * gpu::Pipeline against the per-pixel reference on the frames the
 * simulated phone renders: the IME, app and status-bar scenes of
 * typing every letter on the chase and pnc login screens, and the
 * full-screen app-switch transition frames.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "android/device.h"
#include "android/display.h"
#include "android/window_manager.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "gpu/render_engine.h"
#include "lrz_reference.h"
#include "util/event_queue.h"

namespace gpusc::gpu {
namespace {

using namespace sim_literals;

void
expectMatchesReference(const std::vector<gfx::FrameScene> &scenes)
{
    for (int gen : supportedAdrenoGenerations()) {
        const GpuModel &model = adrenoModel(gen);
        Pipeline pipe(model);
        for (std::size_t i = 0; i < scenes.size(); ++i) {
            const FrameResult got = pipe.render(scenes[i]);
            const FrameResult want = ref::render(model, scenes[i]);
            ASSERT_EQ(got.deltas, want.deltas)
                << model.name << ", frame " << i;
            ASSERT_EQ(got.rasterizedPixels, want.rasterizedPixels)
                << model.name << ", frame " << i;
        }
    }
}

/**
 * The frames the window manager renders while one key per letter is
 * typed: IME, app and status bar, polled once per vsync. The surfaces
 * are detached from the window manager, so each poll takes exactly
 * the damage that vsync would have drawn.
 */
std::vector<gfx::FrameScene>
typingScenes(const std::string &app)
{
    android::DeviceConfig cfg;
    cfg.app = app;
    android::Device dev(cfg);
    dev.launchTargetApp();
    dev.runFor(1000_ms);
    android::Surface *surfaces[] = {&dev.ime(), &dev.app(),
                                    &dev.statusBar()};
    for (android::Surface *s : surfaces)
        dev.wm().removeSurface(s);
    const SimTime period = dev.wm().vsyncPeriod();
    std::vector<gfx::FrameScene> scenes;
    for (char c = 'a'; c <= 'z'; ++c) {
        const std::vector<const android::Key *> keys =
            dev.ime().keysFor(c);
        if (keys.size() != 1)
            continue;
        dev.ime().pressKey(*keys.front(), 120_ms);
        for (SimTime t{}; t < 400_ms; t += period) {
            dev.runFor(period);
            for (android::Surface *s : surfaces) {
                if (!s->visible() || !s->hasDamage())
                    continue;
                gfx::FrameScene scene;
                scene.damage = s->takeDamage();
                s->buildScene(scene);
                scenes.push_back(std::move(scene));
            }
        }
    }
    return scenes;
}

TEST(PipelineFramesTest, ChaseTypingFramesMatchReference)
{
    const std::vector<gfx::FrameScene> scenes = typingScenes("chase");
    ASSERT_GE(scenes.size(), 26u);
    expectMatchesReference(scenes);
}

TEST(PipelineFramesTest, PncTypingFramesMatchReference)
{
    const std::vector<gfx::FrameScene> scenes = typingScenes("pnc");
    ASSERT_GE(scenes.size(), 26u);
    expectMatchesReference(scenes);
}

/**
 * The app-switch transition frame android::WindowManager renders at
 * @p phase. TransitionFramesMatchReference checks that a window
 * manager's counters equal those of these frames.
 */
gfx::FrameScene
transitionScene(const android::DisplayConfig &display, int phase)
{
    gfx::FrameScene scene;
    scene.damage = gfx::Rect{0, 0, display.width, display.height};
    scene.add(scene.damage, true, gfx::PrimTag::Animation);
    const int inset = 40 + 12 * (phase % 8);
    const gfx::Rect card = scene.damage.inset(inset);
    scene.add(card, true, gfx::PrimTag::Animation);
    scene.add(card.inset(display.dp(8)), false, gfx::PrimTag::Animation);
    const int thumbW = display.width / 4;
    for (int i = 0; i < 3; ++i) {
        const int x = (phase * 37 + i * (thumbW + 20)) %
                      (display.width + thumbW) - thumbW / 2;
        scene.add(gfx::Rect::ofSize(x, display.height / 3, thumbW,
                                    display.height / 3),
                  true, gfx::PrimTag::Animation);
    }
    return scene;
}

TEST(PipelineFramesTest, TransitionFramesMatchReference)
{
    constexpr int kFrames = 8;
    for (const android::DisplayConfig &display :
         {android::displayFhdPlus(), android::displayQhdPlus()}) {
        std::vector<gfx::FrameScene> scenes;
        for (int phase = 0; phase < kFrames; ++phase)
            scenes.push_back(transitionScene(display, phase));
        expectMatchesReference(scenes);

        // A window manager with no surfaces renders only the
        // transition, so its counters are the sum of these frames.
        EventQueue eq;
        RenderEngine engine(eq, adrenoModel(650));
        android::WindowManager wm(eq, engine, display);
        wm.playTransition(kFrames);
        wm.start();
        eq.runUntil(eq.now() + display.vsyncPeriod() * (kFrames + 10));
        ASSERT_EQ(engine.framesRendered(), std::uint64_t(kFrames));
        Pipeline pipe(adrenoModel(650));
        CounterVec sum{};
        for (const gfx::FrameScene &s : scenes)
            sum = sum + pipe.render(s).deltas;
        const CounterTotals totals = engine.readAll();
        for (std::size_t c = 0; c < kNumSelectedCounters; ++c)
            EXPECT_EQ(totals[c], std::uint64_t(sum[c]))
                << counterName(SelectedCounter(c)) << ", "
                << display.name;
    }
}

} // namespace
} // namespace gpusc::gpu
