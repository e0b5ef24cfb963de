#include "ml/classifier.h"

#include <algorithm>

namespace gpusc::ml {

int
Dataset::numClasses() const
{
    int maxLabel = -1;
    for (int label : y)
        maxLabel = std::max(maxLabel, label);
    return maxLabel + 1;
}

double
Classifier::accuracy(const Dataset &data) const
{
    if (data.size() == 0)
        return 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
        if (predict(data.x[i]) == data.y[i])
            ++correct;
    return double(correct) / double(data.size());
}

} // namespace gpusc::ml
