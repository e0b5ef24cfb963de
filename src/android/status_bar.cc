#include "android/status_bar.h"

#include "gfx/font.h"

namespace gpusc::android {

StatusBar::StatusBar(EventQueue &eq, const DisplayConfig &display,
                     Rng rng)
    : Surface("statusbar",
              gfx::Rect{0, 0, display.width,
                        display.statusBarHeightPx()},
              /*ownerPid=*/1),
      eq_(eq), display_(display), rng_(rng)
{
}

StatusBar::~StatusBar()
{
    if (pending_)
        eq_.cancel(pending_);
}

void
StatusBar::buildScene(gfx::FrameScene &scene) const
{
    scene.add(bounds(), true, gfx::PrimTag::StatusBar);

    // Clock ("12:30") on the left.
    const int h = bounds().height() * 2 / 3;
    const int w = h * gfx::kGlyphCols / gfx::kGlyphRows;
    const int y = bounds().y0 + (bounds().height() - h) / 2;
    const std::string_view clock = "12:30";
    const int pitch = w + display_.dp(1);
    const int clockX = bounds().x0 + display_.dp(8);
    scene.addText(clock, gfx::Rect::ofSize(clockX, y, w, h), pitch,
                  gfx::PrimTag::StatusBar);
    const int x = clockX + int(clock.size()) * pitch;

    // System icons (battery, signal) on the right.
    int ix = bounds().x1 - display_.dp(10) - h;
    for (int i = 0; i < 3; ++i) {
        scene.add(gfx::Rect::ofSize(ix, y, h, h), true,
                  gfx::PrimTag::StatusBar);
        ix -= h + display_.dp(4);
    }

    // Notification icons accumulate next to the clock.
    const int shown = std::min(notifications_, 6);
    for (int i = 0; i < shown; ++i) {
        scene.add(gfx::Rect::ofSize(x + display_.dp(4) +
                                        i * (h + display_.dp(3)),
                                    y, h, h),
                  true, gfx::PrimTag::StatusBar);
    }
}

void
StatusBar::postNotification()
{
    ++notifications_;
    invalidate();
}

void
StatusBar::scheduleNext()
{
    const double waitSec =
        rng_.exponential(meanInterval_.seconds());
    pending_ = eq_.scheduleAfter(
        SimTime::fromSeconds(std::max(0.05, waitSec)), [this] {
            postNotification();
            scheduleNext();
        });
}

void
StatusBar::startNotifications(SimTime meanInterval)
{
    stopNotifications();
    if (meanInterval.ns() <= 0)
        return;
    meanInterval_ = meanInterval;
    scheduleNext();
}

void
StatusBar::stopNotifications()
{
    if (pending_) {
        eq_.cancel(pending_);
        pending_ = 0;
    }
}

} // namespace gpusc::android
