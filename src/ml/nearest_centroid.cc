#include "ml/nearest_centroid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "simd/kernels_ref.h"
#include "util/logging.h"

namespace gpusc::ml {

void
NearestCentroid::fit(const Dataset &data)
{
    centroids_.clear();
    labels_.clear();
    std::map<int, std::pair<FeatureVec, std::size_t>> sums;
    for (std::size_t i = 0; i < data.size(); ++i) {
        auto &[sum, n] = sums[data.y[i]];
        if (sum.empty())
            sum.assign(data.dims(), 0.0);
        for (std::size_t d = 0; d < sum.size(); ++d)
            sum[d] += data.x[i][d];
        ++n;
    }
    for (auto &[label, entry] : sums) {
        auto &[sum, n] = entry;
        for (double &v : sum)
            v /= double(n);
        centroids_.addRow(sum);
        labels_.push_back(label);
    }
    rebuildPanel();
}

void
NearestCentroid::rebuildPanel()
{
    panel_.packContiguous(centroids_.data(), centroids_.rows(),
                          centroids_.dims(), centroids_.dims());
}

NearestCentroid::Match
NearestCentroid::match(std::span<const double> features) const
{
    if (centroids_.empty())
        panic("NearestCentroid: match() before fit()");
    Match best;
    if (features.size() == centroids_.dims()) {
        // Hot path: vector argmin over the packed panel (one sqrt at
        // the end; losers are abandoned via bound-pruned early exit).
        const simd::Argmin a =
            simd::kernels().argminL2(features.data(), panel_);
        best.label = labels_[a.index];
        best.distance = std::sqrt(a.sq);
        return best;
    }
    // Dimension-mismatched query: per-centroid scan over the query's
    // dimensions only, with the same early-exit semantics.
    const std::size_t nd =
        std::min(features.size(), centroids_.dims());
    double bestSq = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < centroids_.rows(); ++c) {
        const double s = simd::ref::l2sqEarlyExitGe(
            features.data(), centroids_[c].data(), nd, bestSq);
        if (s < bestSq) {
            bestSq = s;
            best.label = labels_[c];
        }
    }
    best.distance = std::sqrt(bestSq);
    return best;
}

int
NearestCentroid::predict(std::span<const double> features) const
{
    if (centroids_.empty())
        panic("NearestCentroid: match() before fit()");
    // predict() needs no distance, so the sqrt is skipped; sqrt is
    // monotone, so ranking on squared distances picks the same winner.
    if (features.size() == centroids_.dims())
        return labels_[simd::kernels()
                           .argminL2(features.data(), panel_)
                           .index];
    return match(features).label;
}

void
NearestCentroid::load(FeatureMatrix centroids, std::vector<int> labels)
{
    if (centroids.rows() != labels.size())
        panic("NearestCentroid::load: %zu centroids vs %zu labels",
              centroids.rows(), labels.size());
    centroids_ = std::move(centroids);
    labels_ = std::move(labels);
    rebuildPanel();
}

void
NearestCentroid::load(const std::vector<FeatureVec> &centroids,
                      std::vector<int> labels)
{
    load(FeatureMatrix::fromRows(centroids), std::move(labels));
}

} // namespace gpusc::ml
