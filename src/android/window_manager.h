/**
 * @file
 * Window manager + choreographer.
 *
 * Drives the vsync loop: at every display refresh, each visible surface
 * with pending damage is re-rendered as one GPU job (surfaces render
 * into their own buffers; hardware composition of the finished buffers
 * is assumed free, matching HWC overlay paths). Also plays the app-
 * switch transition animation, which produces the dense burst of
 * counter changes the attack's app-switch detector keys on (Fig. 13).
 */

#ifndef GPUSC_ANDROID_WINDOW_MANAGER_H
#define GPUSC_ANDROID_WINDOW_MANAGER_H

#include <cstdint>
#include <vector>

#include "android/display.h"
#include "android/surface.h"
#include "gpu/render_engine.h"
#include "util/event_queue.h"

namespace gpusc::android {

/** Composites surfaces on the vsync clock. */
class WindowManager
{
  public:
    WindowManager(EventQueue &eq, gpu::RenderEngine &engine,
                  const DisplayConfig &display);

    /** Register a surface (not owned). */
    void addSurface(Surface *s);
    void removeSurface(Surface *s);

    /** Begin scheduling vsync events. Idempotent. */
    void start();

    const DisplayConfig &display() const { return display_; }
    SimTime vsyncPeriod() const { return display_.vsyncPeriod(); }

    /**
     * Play an app-switch style transition: @p frames consecutive
     * full-area redraws of animated content, one per vsync.
     */
    void playTransition(int frames);

    /** True while a transition animation is still rendering. */
    bool transitionActive() const { return transitionFramesLeft_ > 0; }

    std::uint64_t framesComposited() const { return framesComposited_; }

    EventQueue &eventQueue() { return eq_; }
    gpu::RenderEngine &engine() { return engine_; }

  private:
    void onVsync();
    void renderTransitionFrame();

    EventQueue &eq_;
    gpu::RenderEngine &engine_;
    DisplayConfig display_;
    std::vector<Surface *> surfaces_;
    /** Reused for every composited frame, so a vsync does not
     *  reallocate the primitive list. */
    gfx::FrameScene scene_;
    bool started_ = false;
    std::uint64_t framesComposited_ = 0;
    int transitionFramesLeft_ = 0;
    int transitionPhase_ = 0;
};

} // namespace gpusc::android

#endif // GPUSC_ANDROID_WINDOW_MANAGER_H
