/**
 * @file
 * Fault-resilience sweep: per-key accuracy of the hardened sampling
 * pipeline as driver hostility scales, reported as JSON lines on
 * stdout (one object per fault level):
 *
 *   {"bench": "fault_resilience", "level": "...",
 *    "collapse_ms": ..., "transient_prob": ..., "wrap32": ...,
 *    "key_accuracy": ..., "text_accuracy": ...,
 *    "transient_retries": ..., "reopens": ..., "rebaselines": ...}
 *
 * The sweep anchors on the fault-free baseline and turns the three
 * continuous fault sources up together (power-collapse rate and
 * transient-error probability; wraparound and one device reset join
 * from "moderate" on), so the series reads as accuracy vs. fault
 * intensity.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "util/logging.h"

using namespace gpusc;
using namespace gpusc::sim_literals;

namespace {

struct Level
{
    const char *name;
    kgsl::FaultPlan plan;
};

std::vector<Level>
levels()
{
    std::vector<Level> out;
    out.push_back({"none", {}});

    kgsl::FaultPlan mild;
    mild.transientErrorProb = 0.02;
    mild.powerCollapseInterval = SimTime::fromMs(8000);
    out.push_back({"mild", mild});

    kgsl::FaultPlan moderate;
    moderate.transientErrorProb = 0.10;
    moderate.powerCollapseInterval = SimTime::fromMs(2000);
    moderate.wrap32 = true;
    moderate.deviceResets = {SimTime::fromMs(5000)};
    out.push_back({"moderate", moderate});

    kgsl::FaultPlan severe;
    severe.transientErrorProb = 0.25;
    severe.powerCollapseInterval = SimTime::fromMs(500);
    severe.wrap32 = true;
    severe.wrap32Offset = 0xFFFFF000ull;
    severe.deviceResets = {SimTime::fromMs(3000),
                           SimTime::fromMs(9000)};
    out.push_back({"severe", severe});

    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const int trials = argc > 1 ? std::atoi(argv[1]) : 10;

    attack::ModelStore store;
    for (const Level &level : levels()) {
        eval::ExperimentConfig cfg;
        cfg.faultPlan = level.plan;
        cfg.seed = 11;
        eval::ExperimentRunner runner(cfg, store);
        const eval::AccuracyStats stats =
            runner.runTrials(trials, 8, 16);
        const attack::HealthStats h = runner.health();
        std::printf(
            "{\"bench\": \"fault_resilience\", "
            "\"level\": \"%s\", "
            "\"collapse_ms\": %lld, "
            "\"transient_prob\": %.2f, "
            "\"wrap32\": %s, "
            "\"device_resets\": %zu, "
            "\"trials\": %d, "
            "\"key_accuracy\": %.4f, "
            "\"text_accuracy\": %.4f, "
            "\"transient_retries\": %llu, "
            "\"reopens\": %llu, "
            "\"rebaselines\": %llu, "
            "\"wraps_repaired\": %llu, "
            "\"missed_reads\": %llu}\n",
            level.name,
            (long long)level.plan.powerCollapseInterval.ms(),
            level.plan.transientErrorProb,
            level.plan.wrap32 ? "true" : "false",
            level.plan.deviceResets.size(), trials,
            stats.charAccuracy(), stats.textAccuracy(),
            (unsigned long long)h.transientRetries,
            (unsigned long long)h.reopens,
            (unsigned long long)h.streamResets,
            (unsigned long long)h.wrapsRepaired,
            (unsigned long long)h.missedReads);
        std::fflush(stdout);
    }
    return 0;
}
