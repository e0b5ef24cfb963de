/**
 * @file
 * Common classifier interface.
 */

#ifndef GPUSC_ML_CLASSIFIER_H
#define GPUSC_ML_CLASSIFIER_H

#include <span>
#include <string>

#include "ml/dataset.h"

namespace gpusc::ml {

/** Abstract multi-class classifier. */
class Classifier
{
  public:
    virtual ~Classifier() = default;

    /** Train on @p data; may be called again to retrain. */
    virtual void fit(const Dataset &data) = 0;

    /** @return the predicted class label for @p features. */
    virtual int predict(std::span<const double> features) const = 0;

    /** Adapter so vector-of-doubles call sites (and braced literals)
     *  keep working; derived classes re-expose it with a
     *  using-declaration. */
    int
    predict(const FeatureVec &features) const
    {
        return predict(std::span<const double>(features));
    }

    virtual std::string name() const = 0;

    /** Fraction of samples of @p data predicted correctly. */
    double accuracy(const Dataset &data) const;
};

} // namespace gpusc::ml

#endif // GPUSC_ML_CLASSIFIER_H
