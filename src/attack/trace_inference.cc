#include "attack/trace_inference.h"

#include <limits>

namespace gpusc::attack {

TraceInference::TraceInference(const SignatureModel &model,
                               OnlineInference::Params params)
    : model_(model), params_(params)
{
}

std::vector<InferredKey>
TraceInference::infer(const std::vector<PcChange> &changes) const
{
    const std::size_t n = changes.size();

    // Pre-classify every candidate once: all single changes, plus the
    // combined delta of every pair that falls inside the combine
    // window (the pairing condition depends only on timestamps, so it
    // is known up front). The DP and the decision walk below then
    // reuse these matches instead of re-running classifyRobust.
    std::vector<SignatureModel::Match> single(n);
    for (std::size_t i = 0; i < n; ++i)
        single[i] = model_.classifyRobust(changes[i].delta);

    std::vector<std::size_t> pairSlot(n, std::size_t(-1));
    std::vector<SignatureModel::Match> pairMatch;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (changes[i + 1].time - changes[i].time >
            params_.combineWindow)
            continue;
        using gpu::operator+;
        pairSlot[i] = pairMatch.size();
        pairMatch.push_back(model_.classifyRobust(
            changes[i].delta + changes[i + 1].delta));
    }

    // dp[i]: best (keys, totalDistance) for the suffix starting at i,
    // with choice[i] recording the decision (0 = noise, 1 = single,
    // 2 = pair with i+1).
    struct Cell
    {
        int keys = 0;
        double dist = 0.0;
        int choice = 0;
    };
    std::vector<Cell> dp(n + 1);

    auto better = [](int keysA, double distA, int keysB, double distB) {
        if (keysA != keysB)
            return keysA > keysB;
        return distA < distB;
    };

    for (std::size_t idx = n; idx-- > 0;) {
        // Option 0: this change is noise.
        Cell best{dp[idx + 1].keys, dp[idx + 1].dist, 0};

        // Option 1: a key press by itself.
        if (single[idx].accepted(model_.threshold())) {
            const int keys = 1 + dp[idx + 1].keys;
            const double dist =
                single[idx].distance + dp[idx + 1].dist;
            if (better(keys, dist, best.keys, best.dist))
                best = Cell{keys, dist, 1};
        }

        // Option 2: the left half of a split pair.
        if (pairSlot[idx] != std::size_t(-1)) {
            const SignatureModel::Match &pair =
                pairMatch[pairSlot[idx]];
            if (pair.accepted(model_.threshold())) {
                const int keys = 1 + dp[idx + 2].keys;
                const double dist = pair.distance + dp[idx + 2].dist;
                if (better(keys, dist, best.keys, best.dist))
                    best = Cell{keys, dist, 2};
            }
        }
        dp[idx] = best;
    }

    // Walk the decisions, then apply the T_min duplication rule the
    // same way the online phase does.
    std::vector<InferredKey> keys;
    SimTime lastAccepted = SimTime::fromSeconds(-1e6);
    std::size_t i = 0;
    while (i < n) {
        const int choice = dp[i].choice;
        if (choice == 0) {
            ++i;
            continue;
        }
        const SignatureModel::Match &match =
            choice == 1 ? single[i] : pairMatch[pairSlot[i]];
        const SimTime at = changes[i].time;
        if (at - lastAccepted >= params_.tmin) {
            keys.push_back(
                InferredKey{match.sig->label, at, match.distance});
            lastAccepted = at;
        }
        i += std::size_t(choice);
    }
    return keys;
}

std::string
TraceInference::textFrom(const std::vector<InferredKey> &keys)
{
    std::string out;
    for (const InferredKey &k : keys)
        if (!isPageLabel(k.label) && k.label.size() == 1)
            out.push_back(k.label[0]);
    return out;
}

} // namespace gpusc::attack
