#include "android/keyboard.h"

#include <cctype>
#include <map>

#include "gfx/font.h"
#include "util/logging.h"

namespace gpusc::android {

namespace {

KeyboardSpec
makeSpec(const std::string &name, double height, double keyGap,
         double popupW, double popupH, double popupGlyph, bool shadow,
         double dupProb, std::vector<double> animScales)
{
    KeyboardSpec s;
    s.name = name;
    s.heightDp = height;
    s.keyGapDp = keyGap;
    s.popupWDp = popupW;
    s.popupHDp = popupH;
    s.popupGlyphDp = popupGlyph;
    s.popupShadow = shadow;
    s.duplicationProb = dupProb;
    s.animScales = std::move(animScales);
    return s;
}

const std::map<std::string, KeyboardSpec> &
specTable()
{
    // The six keyboards of Fig. 20. Parameters are product-plausible;
    // what matters is that each renders popups with distinct geometry
    // (hence distinct per-config signature tables) while Gboard's rich
    // animation gives it the highest duplication rate.
    static const std::map<std::string, KeyboardSpec> table = {
        {"gboard",
         makeSpec("gboard", 224, 3, 40, 46, 24, true, 0.18, {1.0})},
        {"swift",
         makeSpec("swift", 216, 2, 36, 42, 21, true, 0.06, {1.0})},
        {"sogou",
         makeSpec("sogou", 230, 4, 42, 48, 23, false, 0.08, {1.0})},
        {"pinyin",
         makeSpec("pinyin", 222, 3, 38, 44, 22, true, 0.07, {1.0})},
        {"go", makeSpec("go", 210, 2, 34, 40, 20, false, 0.04, {1.0})},
        {"grammarly",
         makeSpec("grammarly", 218, 3, 37, 43, 21, true, 0.05, {1.0})},
    };
    return table;
}

} // namespace

const KeyboardSpec &
keyboardSpec(const std::string &name)
{
    const auto &table = specTable();
    auto it = table.find(name);
    if (it == table.end())
        fatal("keyboardSpec: unknown keyboard '%s'", name.c_str());
    return it->second;
}

const std::vector<std::string> &
keyboardNames()
{
    static const std::vector<std::string> names = {
        "swift", "gboard", "sogou", "pinyin", "go", "grammarly"};
    return names;
}

KeyboardLayout::KeyboardLayout(KeyboardSpec spec, DisplayConfig display)
    : spec_(std::move(spec)), display_(display)
{
    const int h = display_.dp(spec_.heightDp);
    bounds_ = gfx::Rect{0, display_.height - h, display_.width,
                        display_.height};
    layoutPages();
}

namespace {

/** Descriptor of one key cell used during row layout. */
struct Cell
{
    KeyCode code;
    char ch;
    double widthUnits;
};

std::vector<Cell>
charRow(const std::string &chars)
{
    std::vector<Cell> cells;
    for (char c : chars)
        cells.push_back({KeyCode::Char, c, 1.0});
    return cells;
}

} // namespace

void
KeyboardLayout::layoutPages()
{
    using Row = std::vector<Cell>;

    auto bottomRow = [](KeyCode pageKey) {
        return Row{{pageKey, 0, 1.5},
                   {KeyCode::Char, ',', 1.0},
                   {KeyCode::Space, ' ', 4.0},
                   {KeyCode::Char, '.', 1.0},
                   {KeyCode::Enter, '\n', 1.5}};
    };

    const std::vector<Row> lowerRows = {
        charRow("qwertyuiop"),
        charRow("asdfghjkl"),
        Row{{KeyCode::Shift, 0, 1.5},
            {KeyCode::Char, 'z', 1.0},
            {KeyCode::Char, 'x', 1.0},
            {KeyCode::Char, 'c', 1.0},
            {KeyCode::Char, 'v', 1.0},
            {KeyCode::Char, 'b', 1.0},
            {KeyCode::Char, 'n', 1.0},
            {KeyCode::Char, 'm', 1.0},
            {KeyCode::Backspace, 0, 1.5}},
        bottomRow(KeyCode::Sym),
    };

    auto upperRows = lowerRows;
    for (Row &row : upperRows)
        for (Cell &cell : row)
            if (cell.code == KeyCode::Char && std::islower(
                    static_cast<unsigned char>(cell.ch)))
                cell.ch = char(std::toupper(
                    static_cast<unsigned char>(cell.ch)));

    const std::vector<Row> symbolRows = {
        charRow("1234567890"),
        charRow("@#$&-+()/*"),
        Row{{KeyCode::Char, '"', 1.0},
            {KeyCode::Char, '\'', 1.0},
            {KeyCode::Char, ':', 1.0},
            {KeyCode::Char, ';', 1.0},
            {KeyCode::Char, '!', 1.0},
            {KeyCode::Char, '?', 1.0},
            {KeyCode::Backspace, 1, 1.5}},
        bottomRow(KeyCode::Abc),
    };

    auto layoutPage = [&](KbPage page, const std::vector<Row> &rows) {
        std::vector<Key> &keys = pages_[std::size_t(page)];
        keys.clear();
        const int side = display_.dp(spec_.sideMarginDp);
        const int bottom = display_.dp(spec_.bottomMarginDp);
        const int rowGap = display_.dp(spec_.rowGapDp);
        const int keyGap = display_.dp(spec_.keyGapDp);
        const gfx::Rect usable{bounds_.x0 + side, bounds_.y0 + rowGap,
                               bounds_.x1 - side, bounds_.y1 - bottom};
        const int nrows = int(rows.size());
        const int rowH =
            (usable.height() - (nrows - 1) * rowGap) / nrows;
        for (int r = 0; r < nrows; ++r) {
            const Row &row = rows[std::size_t(r)];
            double totalUnits = 0.0;
            for (const Cell &cell : row)
                totalUnits += cell.widthUnits;
            const int y0 = usable.y0 + r * (rowH + rowGap);
            const double unitW =
                (double(usable.width()) -
                 double(row.size() - 1) * keyGap) / totalUnits;
            double x = usable.x0;
            for (const Cell &cell : row) {
                const int x0 = int(x + 0.5);
                const int x1 = int(x + unitW * cell.widthUnits + 0.5);
                keys.push_back(Key{cell.code, cell.ch, page,
                                   gfx::Rect{x0, y0, x1, y0 + rowH}});
                x += unitW * cell.widthUnits + keyGap;
            }
        }
    };

    layoutPage(KbPage::Lower, lowerRows);
    layoutPage(KbPage::Upper, upperRows);
    layoutPage(KbPage::Symbols, symbolRows);
}

const std::vector<Key> &
KeyboardLayout::keys(KbPage page) const
{
    return pages_[std::size_t(page)];
}

const Key *
KeyboardLayout::findChar(KbPage page, char c) const
{
    for (const Key &k : keys(page))
        if (k.code == KeyCode::Char && k.ch == c)
            return &k;
    return nullptr;
}

const Key *
KeyboardLayout::findSpecial(KbPage page, KeyCode code) const
{
    for (const Key &k : keys(page))
        if (k.code == code)
            return &k;
    return nullptr;
}

KbPage
KeyboardLayout::pageForChar(char c)
{
    if (c == ',' || c == '.')
        return KbPage::Lower; // present on every page's bottom row
    if (std::islower(static_cast<unsigned char>(c)))
        return KbPage::Lower;
    if (std::isupper(static_cast<unsigned char>(c)))
        return KbPage::Upper;
    return KbPage::Symbols;
}

bool
KeyboardLayout::isTypable(char c)
{
    if (c == ' ')
        return true;
    if (std::islower(static_cast<unsigned char>(c)) ||
        std::isupper(static_cast<unsigned char>(c)) ||
        std::isdigit(static_cast<unsigned char>(c)))
        return true;
    const std::string symbols = ",.@#$&-+()/*\"':;!?";
    return symbols.find(c) != std::string::npos;
}

gfx::Rect
KeyboardLayout::surfaceBounds() const
{
    double maxScale = 1.0;
    for (double s : spec_.animScales)
        maxScale = std::max(maxScale, s);
    const int strip =
        int(display_.dp(spec_.popupHDp) * maxScale + 0.5) +
        display_.dp(spec_.popupRaiseDp) + display_.dp(4);
    gfx::Rect r = bounds_;
    r.y0 = std::max(0, r.y0 - strip);
    return r;
}

gfx::Rect
KeyboardLayout::popupRect(const Key &key, double scale) const
{
    const int w = int(display_.dp(spec_.popupWDp) * scale + 0.5);
    const int h = int(display_.dp(spec_.popupHDp) * scale + 0.5);
    const int raise = display_.dp(spec_.popupRaiseDp);
    const int cx = key.rect.center().x;
    int x0 = cx - w / 2;
    // Clamp horizontally into the keyboard area (edge keys' popups
    // shift inward, another source of per-key uniqueness).
    x0 = std::max(bounds_.x0 + 2, std::min(x0, bounds_.x1 - 2 - w));
    const int y1 = key.rect.y0 - raise;
    return gfx::Rect{x0, y1 - h, x0 + w, y1};
}

gfx::Rect
KeyboardLayout::popupMaxRect(const Key &key) const
{
    double maxScale = 1.0;
    for (double s : spec_.animScales)
        maxScale = std::max(maxScale, s);
    gfx::Rect r = popupRect(key, maxScale);
    if (spec_.popupShadow)
        r = r.unite(r.translated(display_.dp(2), display_.dp(2)));
    // The IME window clips its own drawing: anything outside the
    // surface is never rendered, so it is not part of the exposed
    // region either.
    return r.intersect(surfaceBounds());
}

void
KeyboardLayout::buildKeyIcon(gfx::FrameScene &scene, const Key &key) const
{
    // Special keys carry simple geometric icons instead of font glyphs;
    // each is a distinct prim pattern so page-switch redraws stay
    // distinguishable in counter space.
    const gfx::Rect box = key.rect.inset(key.rect.height() / 3);
    const int cx = box.center().x;
    const int cy = box.center().y;
    const int u = std::max(2, box.height() / 5);
    auto add = [&](const gfx::Rect &r) {
        scene.add(r, true, gfx::PrimTag::KeyLabel);
    };
    switch (key.code) {
      case KeyCode::Shift:
        add(gfx::Rect::ofSize(cx - u / 2, box.y0, u, 2 * u));
        add(gfx::Rect::ofSize(cx - u, box.y0 + u, 2 * u, u));
        add(gfx::Rect::ofSize(cx - u / 2, box.y0 + 2 * u, u, 2 * u));
        break;
      case KeyCode::Backspace:
        add(gfx::Rect::ofSize(box.x0, cy - u / 2, box.width(), u));
        add(gfx::Rect::ofSize(box.x0, cy - u, u, 2 * u));
        break;
      case KeyCode::Sym:
      case KeyCode::Abc:
        add(gfx::Rect::ofSize(box.x0, cy - u / 2, box.width(), u));
        add(gfx::Rect::ofSize(cx - u / 2, box.y0, u, box.height()));
        break;
      case KeyCode::Space:
        add(gfx::Rect::ofSize(box.x0, box.y1 - u, box.width(), u));
        break;
      case KeyCode::Enter:
        add(gfx::Rect::ofSize(box.x0, cy - u / 2, box.width() - u, u));
        add(gfx::Rect::ofSize(box.x1 - u, cy - 2 * u, u, 2 * u));
        break;
      case KeyCode::Char:
        break;
    }
}

void
KeyboardLayout::buildBase(gfx::FrameScene &scene, KbPage page) const
{
    // Suggestion strip above the key rows (part of the IME window).
    // Top-row popups overlap and occlude its content, which is what
    // differentiates their overdraw signatures.
    const gfx::Rect surface = surfaceBounds();
    if (surface.y0 < bounds_.y0) {
        const gfx::Rect strip{surface.x0, surface.y0, surface.x1,
                              bounds_.y0};
        scene.add(strip, true, gfx::PrimTag::Background);
        const int sh = strip.height();
        const int glyphH = std::max(6, sh / 3);
        const int glyphW = glyphH * gfx::kGlyphCols / gfx::kGlyphRows;
        const int y = strip.y0 + (sh - glyphH) / 2;
        // Suggestion text spans the whole strip, so a popup at any
        // horizontal position occludes a distinct slice of glyphs —
        // that occlusion difference is a large part of what separates
        // same-glyph-count keys (e.g. '6' vs '9') in counter space.
        const std::string phrase =
            "the quick brown fox jumps over a lazy dog and you can "
            "type some more words here right now because these are "
            "only suggestions";
        const int x0 = strip.x0 + display_.dp(4);
        const int pitch = glyphW + display_.dp(1);
        std::size_t fit = 0;
        while (fit < phrase.size() &&
               x0 + int(fit) * pitch + glyphW <= strip.x1 - display_.dp(4))
            ++fit;
        scene.addText(std::string_view(phrase).substr(0, fit),
                      gfx::Rect::ofSize(x0, y, glyphW, glyphH), pitch,
                      gfx::PrimTag::KeyLabel);
        // Divider bars at thirds (Gboard-style).
        for (int div = 1; div <= 2; ++div) {
            scene.add(gfx::Rect::ofSize(
                          strip.x0 + div * strip.width() / 3,
                          strip.y0 + sh / 4, display_.dp(1), sh / 2),
                      true, gfx::PrimTag::KeyLabel);
        }
    }

    scene.add(bounds_, true, gfx::PrimTag::Background);
    const int capInset = display_.dp(spec_.capInsetDp);
    const int labelH = display_.dp(spec_.labelDp);
    const int labelW = labelH * gfx::kGlyphCols / gfx::kGlyphRows;
    for (const Key &key : keys(page)) {
        scene.add(key.rect.inset(capInset), true, gfx::PrimTag::KeyCap);
        if (key.code == KeyCode::Char && key.ch != ' ') {
            const gfx::Point c = key.rect.center();
            scene.addGlyph(key.ch,
                           gfx::Rect::ofSize(c.x - labelW / 2,
                                             c.y - labelH / 2, labelW,
                                             labelH),
                           gfx::PrimTag::KeyLabel);
        } else {
            buildKeyIcon(scene, key);
        }
    }
}

void
KeyboardLayout::buildPopup(gfx::FrameScene &scene, const Key &key,
                           double scale) const
{
    const gfx::Rect popup = popupRect(key, scale);
    if (spec_.popupShadow) {
        const int off = display_.dp(2);
        scene.add(popup.translated(off, off), false,
                  gfx::PrimTag::Popup);
    }
    scene.add(popup, true, gfx::PrimTag::Popup);
    const int glyphH = int(display_.dp(spec_.popupGlyphDp) * scale + 0.5);
    const int glyphW = glyphH * gfx::kGlyphCols / gfx::kGlyphRows;
    const gfx::Point c = popup.center();
    scene.addGlyph(key.ch,
                   gfx::Rect::ofSize(c.x - glyphW / 2, c.y - glyphH / 2,
                                     glyphW, glyphH),
                   gfx::PrimTag::PopupGlyph);
}

} // namespace gpusc::android
