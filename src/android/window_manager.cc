#include "android/window_manager.h"

#include <algorithm>

namespace gpusc::android {

WindowManager::WindowManager(EventQueue &eq, gpu::RenderEngine &engine,
                             const DisplayConfig &display)
    : eq_(eq), engine_(engine), display_(display)
{
}

void
WindowManager::addSurface(Surface *s)
{
    surfaces_.push_back(s);
}

void
WindowManager::removeSurface(Surface *s)
{
    surfaces_.erase(std::remove(surfaces_.begin(), surfaces_.end(), s),
                    surfaces_.end());
}

void
WindowManager::start()
{
    if (started_)
        return;
    started_ = true;
    eq_.scheduleAfter(vsyncPeriod(), [this] { onVsync(); });
}

void
WindowManager::renderTransitionFrame()
{
    // The app-overview animation redraws (almost) the whole screen
    // with scaling window thumbnails; content varies per phase so the
    // counter deltas of consecutive frames differ, as in Fig. 13.
    gfx::FrameScene &scene = scene_;
    scene.prims.clear();
    scene.damage = gfx::Rect{0, 0, display_.width, display_.height};
    scene.add(scene.damage, true, gfx::PrimTag::Animation);
    const int inset = 40 + 12 * (transitionPhase_ % 8);
    const gfx::Rect card = scene.damage.inset(inset);
    scene.add(card, true, gfx::PrimTag::Animation);
    scene.add(card.inset(display_.dp(8)), false, gfx::PrimTag::Animation);
    // A strip of app thumbnails sliding across.
    const int thumbW = display_.width / 4;
    for (int i = 0; i < 3; ++i) {
        const int x = (transitionPhase_ * 37 + i * (thumbW + 20)) %
                      (display_.width + thumbW) - thumbW / 2;
        scene.add(gfx::Rect::ofSize(x, display_.height / 3, thumbW,
                                    display_.height / 3),
                  true, gfx::PrimTag::Animation);
    }
    engine_.submit(scene);
    ++transitionPhase_;
    --transitionFramesLeft_;
}

void
WindowManager::onVsync()
{
    if (transitionFramesLeft_ > 0) {
        renderTransitionFrame();
    } else {
        for (Surface *s : surfaces_) {
            if (!s->visible() || !s->hasDamage())
                continue;
            scene_.prims.clear();
            scene_.damage = s->takeDamage();
            s->buildScene(scene_);
            engine_.submit(scene_, s->ownerPid());
            ++framesComposited_;
        }
    }
    eq_.scheduleAfter(vsyncPeriod(), [this] { onVsync(); });
}

void
WindowManager::playTransition(int frames)
{
    transitionFramesLeft_ = std::max(transitionFramesLeft_, frames);
}

} // namespace gpusc::android
