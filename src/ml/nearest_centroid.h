/**
 * @file
 * Nearest-centroid classifier with a rejection threshold.
 *
 * This is the classification model the attack preloads per device
 * configuration (paper §5.1 / Fig. 12): each key's offline samples are
 * averaged into a centroid; an online reading is accepted as a key
 * press only when its distance to the nearest centroid is below the
 * threshold C_th, otherwise it is rejected as split/noise.
 */

#ifndef GPUSC_ML_NEAREST_CENTROID_H
#define GPUSC_ML_NEAREST_CENTROID_H

#include <span>
#include <vector>

#include "ml/classifier.h"
#include "simd/kernels.h"

namespace gpusc::ml {

/** Nearest-centroid classifier (L2) with distance reporting. */
class NearestCentroid : public Classifier
{
  public:
    void fit(const Dataset &data) override;
    int predict(std::span<const double> features) const override;
    using Classifier::predict;
    std::string name() const override { return "NearestCentroid"; }

    /** Prediction plus the distance to the winning centroid. */
    struct Match
    {
        int label = -1;
        double distance = 0.0;
    };
    Match match(std::span<const double> features) const;
    /** Adapter so braced-init feature lists keep working. */
    Match match(const FeatureVec &features) const
    {
        return match(std::span<const double>(features));
    }

    const FeatureMatrix &centroids() const { return centroids_; }
    const std::vector<int> &labels() const { return labels_; }

    /** Replace the fitted state directly (model deserialisation). */
    void load(FeatureMatrix centroids, std::vector<int> labels);
    void load(const std::vector<FeatureVec> &centroids,
              std::vector<int> labels);

  private:
    /** Repack the SIMD panel after any centroid state change. */
    void rebuildPanel();

    FeatureMatrix centroids_;
    std::vector<int> labels_;
    /** Centroids transposed for the vector argmin kernel. */
    simd::Panel panel_;
};

} // namespace gpusc::ml

#endif // GPUSC_ML_NEAREST_CENTROID_H
