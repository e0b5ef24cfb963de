#include "android/app.h"

#include <map>

#include "gfx/font.h"
#include "util/logging.h"

namespace gpusc::android {

using namespace gpusc::sim_literals;

namespace {

AppSpec
makeSpec(const std::string &name, int decor, const std::string &logo,
         double fieldY, double fieldW, bool web = false,
         bool anim = false)
{
    AppSpec s;
    s.name = name;
    s.decorRects = decor;
    s.logoText = logo;
    s.fieldYFrac = fieldY;
    s.fieldWidthDp = fieldW;
    s.web = web;
    s.loginAnimation = anim;
    return s;
}

const std::map<std::string, AppSpec> &
specTable()
{
    static const std::map<std::string, AppSpec> table = {
        {"chase", makeSpec("chase", 7, "CHASE", 0.40, 300)},
        {"amex", makeSpec("amex", 5, "AMEX", 0.46, 290)},
        {"fidelity", makeSpec("fidelity", 8, "Fidelity", 0.38, 310)},
        {"schwab", makeSpec("schwab", 6, "Schwab", 0.44, 295)},
        {"myfico", makeSpec("myfico", 4, "myFICO", 0.41, 285)},
        {"experian", makeSpec("experian", 6, "Experian", 0.43, 305)},
        {"pnc", makeSpec("pnc", 6, "PNC", 0.42, 300, false, true)},
        {"chase.com", makeSpec("chase.com", 9, "chase.com", 0.47, 320,
                               true)},
        {"schwab.com", makeSpec("schwab.com", 8, "schwab.com", 0.49,
                                315, true)},
        {"experian.com", makeSpec("experian.com", 7, "experian.com",
                                  0.48, 325, true)},
    };
    return table;
}

} // namespace

const AppSpec &
appSpec(const std::string &name)
{
    const auto &table = specTable();
    auto it = table.find(name);
    if (it == table.end())
        fatal("appSpec: unknown target app '%s'", name.c_str());
    return it->second;
}

const std::vector<std::string> &
nativeAppNames()
{
    static const std::vector<std::string> names = {
        "chase", "amex", "fidelity", "schwab", "myfico", "experian"};
    return names;
}

const std::vector<std::string> &
webAppNames()
{
    static const std::vector<std::string> names = {
        "chase.com", "schwab.com", "experian.com"};
    return names;
}

AppSurface::AppSurface(EventQueue &eq, const AppSpec &spec,
                       const DisplayConfig &display, int pid,
                       int osVersionTweak, std::uint64_t blinkSeed)
    : Surface("app:" + spec.name,
              gfx::Rect{0, display.statusBarHeightPx(), display.width,
                        display.height},
              pid),
      eq_(eq), spec_(spec), display_(display),
      osVersionTweak_(osVersionTweak), blinkRng_(blinkSeed)
{
    const int w = display_.dp(spec_.fieldWidthDp);
    const int h = display_.dp(spec_.fieldHeightDp);
    const int x0 = (display_.width - w) / 2;
    const int y0 = int(spec_.fieldYFrac * display_.height) +
                   osVersionTweak_ * display_.dp(2);
    fieldRect_ = gfx::Rect{x0, y0, x0 + w, y0 + h};
}

AppSurface::~AppSurface()
{
    if (blinkEvent_)
        eq_.cancel(blinkEvent_);
    if (animEvent_)
        eq_.cancel(animEvent_);
}

gfx::Rect
AppSurface::animRect() const
{
    const int h = int(spec_.animAreaFrac * display_.height);
    return gfx::Rect{bounds().x0, bounds().y0 + display_.dp(40),
                     bounds().x1, bounds().y0 + display_.dp(40) + h};
}

void
AppSurface::buildScene(gfx::FrameScene &scene) const
{
    // Login background.
    scene.add(bounds(), true, gfx::PrimTag::AppContent);

    // Browser chrome for web targets (URL bar + toolbar).
    int contentTop = bounds().y0;
    if (spec_.web) {
        const gfx::Rect urlBar{bounds().x0, contentTop, bounds().x1,
                               contentTop + display_.dp(36)};
        scene.add(urlBar, true, gfx::PrimTag::AppContent);
        scene.add(urlBar.inset(display_.dp(6)), true,
                  gfx::PrimTag::AppContent);
        contentTop = urlBar.y1;
    }

    // Decorative rects (cards, buttons, banners) — deterministic
    // layout derived from the spec so each app has a unique scene.
    for (int i = 0; i < spec_.decorRects; ++i) {
        const int y = contentTop + display_.dp(50.0 + 36.0 * i +
                                               4.0 * osVersionTweak_);
        const int margin = display_.dp(16.0 + 7.0 * (i % 3));
        const int h = display_.dp(18.0 + 5.0 * ((i * 13) % 4));
        scene.add(gfx::Rect{bounds().x0 + margin, y,
                            bounds().x1 - margin, y + h},
                  true, gfx::PrimTag::AppContent);
    }

    // Animated decor region (PNC): content depends on animPhase_.
    if (spec_.loginAnimation && animRunning_) {
        const gfx::Rect ar = animRect();
        scene.add(ar, true, gfx::PrimTag::Animation);
        const int n = 3 + animPhase_ % 4;
        for (int i = 0; i < n; ++i) {
            const int x = ar.x0 + ((animPhase_ * 53 + i * 177) %
                                   std::max(1, ar.width() - 60));
            const int y = ar.y0 + ((animPhase_ * 31 + i * 97) %
                                   std::max(1, ar.height() - 40));
            scene.add(gfx::Rect::ofSize(x, y, 60, 40),
                      i % 2 == 0, gfx::PrimTag::Animation);
        }
    }

    // Brand logo as glyph runs.
    const int logoH = display_.dp(22);
    const int logoW = logoH * gfx::kGlyphCols / gfx::kGlyphRows;
    const int logoPitch = logoW + display_.dp(2);
    const int lx =
        (display_.width - int(spec_.logoText.size()) * logoPitch) / 2;
    const int ly = contentTop + display_.dp(18);
    scene.addText(spec_.logoText, gfx::Rect::ofSize(lx, ly, logoW, logoH),
                  logoPitch, gfx::PrimTag::AppContent);

    // Credential field: box, underline, one dot per committed char,
    // cursor when lit. Every field redraw therefore contributes
    // 2 * (len + const) visible primitives — the length channel.
    scene.add(fieldRect_, true, gfx::PrimTag::TextField);
    scene.add(gfx::Rect{fieldRect_.x0, fieldRect_.y1,
                        fieldRect_.x1, fieldRect_.y1 + display_.dp(2)},
              true, gfx::PrimTag::TextField);
    const int dot = display_.dp(spec_.dotDp);
    const int pitch = dot + display_.dp(4);
    const int dotY = fieldRect_.center().y - dot / 2;
    int x = fieldRect_.x0 + display_.dp(6);
    for (std::size_t i = 0; i < textLen_; ++i) {
        scene.add(gfx::Rect::ofSize(x, dotY, dot, dot), true,
                  gfx::PrimTag::TextEcho);
        x += pitch;
    }
    if (focused_ && cursorOn_)
        scene.add(cursorRect(), true, gfx::PrimTag::Cursor);
}

gfx::Rect
AppSurface::cursorRect() const
{
    const int dot = display_.dp(spec_.dotDp);
    const int pitch = dot + display_.dp(4);
    const int x = fieldRect_.x0 + display_.dp(6) +
                  int(textLen_) * pitch;
    // Kept deliberately slim: the cursor's rasterised area must stay
    // well under half a dot's so blink cannot masquerade as an
    // append/delete in the length channel.
    return gfx::Rect::ofSize(x, fieldRect_.y0 + display_.dp(4),
                             display_.dp(1),
                             fieldRect_.height() - display_.dp(8));
}

SimTime
AppSurface::blinkJitter()
{
    // The blink runnable is posted on the UI thread's handler; its
    // dispatch latency varies with what else the main looper is doing.
    return SimTime::fromMs(blinkRng_.uniformInt(0, 60));
}

void
AppSurface::restartBlink()
{
    // Android resets the cursor-blink timer on every text change: the
    // cursor shows solid while the user types and resumes blinking
    // only after an idle timeout.
    if (!focused_)
        return;
    cursorOn_ = true;
    if (blinkEvent_)
        eq_.cancel(blinkEvent_);
    blinkEvent_ = eq_.scheduleAfter(700_ms + blinkJitter(),
                                    [this] { onCursorBlink(); });
}

void
AppSurface::appendChar()
{
    ++textLen_;
    restartBlink();
    invalidate(fieldRect_.inset(-display_.dp(4)));
}

void
AppSurface::deleteChar()
{
    if (textLen_ == 0)
        return;
    --textLen_;
    restartBlink();
    invalidate(fieldRect_.inset(-display_.dp(4)));
}

void
AppSurface::clearText()
{
    textLen_ = 0;
    restartBlink();
    invalidate(fieldRect_.inset(-display_.dp(4)));
}

void
AppSurface::focusField()
{
    if (focused_)
        return;
    focused_ = true;
    cursorOn_ = true;
    invalidate(fieldRect_.inset(-display_.dp(4)));
    blinkEvent_ = eq_.scheduleAfter(500_ms + blinkJitter(),
                                    [this] { onCursorBlink(); });
}

void
AppSurface::unfocusField()
{
    if (!focused_)
        return;
    focused_ = false;
    cursorOn_ = false;
    if (blinkEvent_) {
        eq_.cancel(blinkEvent_);
        blinkEvent_ = 0;
    }
    invalidate(fieldRect_.inset(-display_.dp(4)));
}

void
AppSurface::onCursorBlink()
{
    cursorOn_ = !cursorOn_;
    // Android invalidates just the cursor drawable on blink — a tiny
    // redraw, far smaller than a text-echo redraw.
    invalidate(cursorRect());
    blinkEvent_ = eq_.scheduleAfter(500_ms + blinkJitter(),
                                    [this] { onCursorBlink(); });
}

void
AppSurface::startAnimation()
{
    if (!spec_.loginAnimation || animRunning_)
        return;
    animRunning_ = true;
    animEvent_ =
        eq_.scheduleAfter(spec_.animPeriod, [this] { onAnimTick(); });
}

void
AppSurface::stopAnimation()
{
    animRunning_ = false;
    if (animEvent_) {
        eq_.cancel(animEvent_);
        animEvent_ = 0;
    }
    invalidate(animRect());
}

void
AppSurface::onAnimTick()
{
    ++animPhase_;
    invalidate(animRect());
    animEvent_ =
        eq_.scheduleAfter(spec_.animPeriod, [this] { onAnimTick(); });
}

} // namespace gpusc::android
