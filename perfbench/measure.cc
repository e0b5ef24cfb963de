/**
 * @file
 * The measured phase's scheduler: interleaves campaign rounds, cold
 * trainings, corpus passes and the host-speed kernel so that slow
 * drifts of host speed fall on every activity alike instead of on
 * whichever ran last.
 */

#include <array>
#include <functional>

#include "bench.h"

namespace perfbench {

std::uint64_t
hostKernel()
{
    // xorshift64 walk over a 16 KiB table: integer ALU work, dependent
    // loads and stores, all L1-resident, none of it program code.
    std::array<std::uint32_t, 4096> table{};
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto step = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t &t : table)
        t = std::uint32_t(step());
    std::uint64_t acc = 0;
    for (int i = 0; i < kHostKernelIters; ++i) {
        step();
        acc += std::uint64_t(table[x & 4095]) * (x >> 40);
        table[(x >> 20) & 4095] ^= std::uint32_t(acc);
    }
    return acc;
}

Measured
runMeasured(const Workload &w, std::uint64_t seed, Setup &setup,
            const std::string &workDir, double seconds, Trace *trace)
{
    Measured out;
    Campaign campaign(w, seed, setup, trace, out.camp);
    CorpusPasses corpus(w, setup, workDir, trace, out.resc);
    exec::ThreadPool pool(kPumpThreads);

    const double passShare = (1.0 - w.roundShare) / 3.0;
    struct Activity
    {
        double share;
        std::function<void()> unit;
        double spentNs = 0.0;
        int units = 0;
    };
    // One kernel call on this thread, or one on each pump worker at
    // once: the ingest figures come from the pool, so they are scaled
    // by the pool's speed.
    auto kernel = [&](std::size_t width, std::vector<double> &rates) {
        std::array<std::uint64_t, kPumpThreads> sums{};
        const std::int64_t k0 = obs::hostNowNs();
        if (width == 1)
            sums[0] = hostKernel();
        else
            pool.parallelFor(width, [&sums](std::size_t i) {
                sums[i] = hostKernel();
            });
        rates.push_back(1e9 / double(obs::hostNowNs() - k0));
        for (std::size_t i = 0; i < width; ++i) {
            if (out.hostChecksum && sums[i] != out.hostChecksum)
                out.hostKernelStable = false;
            out.hostChecksum = sums[i];
        }
    };
    std::array<Activity, 6> acts = {{
        {w.roundShare, [&] { campaign.round(); }},
        {passShare, [&] { corpus.replay(); }},
        {passShare, [&] { corpus.exportAll(); }},
        {passShare, [&] { corpus.ingest(pool); }},
        {kHostShare / 2, [&] { kernel(1, out.hostCallsPerS); }},
        {kHostShare / 2,
         [&] { kernel(kPumpThreads, out.poolCallsPerS); }},
    }};
    auto run = [](Activity &a) {
        const std::int64_t t0 = obs::hostNowNs();
        a.unit();
        a.spentNs += double(obs::hostNowNs() - t0);
        ++a.units;
    };

    const double t0 = double(obs::hostNowNs());
    const double budgetNs = seconds * 1e9;
    int trainings = 0;
    for (;;) {
        const double elapsed = double(obs::hostNowNs()) - t0;
        // Training k runs once (k + 1/2) / n of the budget has passed.
        if (trainings < w.trainings &&
            elapsed >= (trainings + 0.5) * budgetNs / w.trainings) {
            campaign.train();
            ++trainings;
            continue;
        }
        Activity *next = nullptr;
        if (elapsed < budgetNs) {
            // Furthest behind its share of the time spent so far.
            for (Activity &a : acts)
                if (a.share > 0.0 &&
                    (!next ||
                     a.spentNs / a.share < next->spentNs / next->share))
                    next = &a;
        } else if (campaign.rounds() < w.accRounds) {
            next = &acts[0];
        } else {
            for (Activity &a : acts)
                if (a.share > 0.0 && a.units == 0)
                    next = &a;
        }
        if (!next && trainings == w.trainings)
            break;
        if (next)
            run(*next);
    }
    return out;
}

} // namespace perfbench
