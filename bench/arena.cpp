/**
 * @file
 * The attack-vs-defense arena bench: run the kgsl defense grid
 * against the naive and the gracefully-adapting attacker, print the
 * matrix and mirror it (with self-checked invariants) to
 * BENCH_arena.json:
 *
 *   {
 *     "bench": "arena",
 *     "deterministic_across_threads": <cells byte-identical at
 *                                      --threads 1 and 4>,
 *     "monotonic_vs_stock": <stock >= every defended cell,
 *                            per attacker column>,
 *     "robust_beats_naive_rate": <robust key accuracy strictly above
 *                                 naive on the rate-limit row>,
 *     "robust_beats_naive_quant": <same, quantization row>,
 *     "all_defended_cells_report_overhead": <defender cpu_ns > 0
 *                                            everywhere a defense
 *                                            is active>,
 *     "cells": [ {defense, attacker, accuracy, health, overhead} ]
 *   }
 *
 * The cells are the measurement. The bench exits 1 unless the cells
 * are deterministic across threads, stock >= defended, every defended
 * cell reports overhead, and there are at least six cells, each with
 * its own (defense, attacker) pair; ctest runs `arena --quick
 * --threads 4` as a `gate` entry. The two "robust beats naive" lines
 * are reported, not gated. `--quick` shrinks the grid and trial count
 * to sanitiser-friendly size.
 */

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arena/matrix.h"
#include "bench_util.h"

using namespace gpusc;

namespace {

const eval::AccuracyStats *
findCell(const std::vector<arena::Cell> &cells,
         const std::string &defensePrefix, const std::string &attacker)
{
    for (const arena::Cell &c : cells)
        if (c.attacker == attacker &&
            c.defense.rfind(defensePrefix, 0) == 0)
            return &c.stats;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    int trials = 10;
    std::size_t altThreads = 4;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--threads") == 0 &&
                 i + 1 < argc)
            altThreads = std::size_t(std::atoi(argv[++i]));
        else
            trials = std::atoi(argv[i]);
    }
    if (quick)
        trials = std::min(trials, 4);
    bench::banner("arena", "kgsl defenses vs the adapting attacker");

    arena::MatrixConfig mc;
    mc.base.seed = 4100;
    mc.trials = trials;
    mc.minLen = 8;
    mc.maxLen = quick ? 10 : 12;
    if (quick) {
        // Smoke grid: stock + one row per defense family.
        mc.defenses = arena::Matrix::defaultGrid();
        mc.defenses.resize(5); // stock, rate, rate-stale, quant, noise
    }

    // The determinism invariant is measured, not assumed: the same
    // matrix runs serially and sharded, and the serialized cells must
    // be byte-identical.
    mc.threads = 1;
    const std::vector<arena::Cell> cells =
        arena::Matrix(mc).run(attack::ModelStore::global());
    const std::string json1 = arena::Matrix::cellsJson(cells);

    mc.threads = altThreads;
    const std::vector<arena::Cell> cellsMt =
        arena::Matrix(mc).run(attack::ModelStore::global());
    const bool deterministic =
        json1 == arena::Matrix::cellsJson(cellsMt);

    arena::Matrix::printTable(cells);

    // --- Invariant: defenses only degrade the attack (per column).
    bool monotonic = true;
    for (const char *attacker : {"naive", "robust"}) {
        const eval::AccuracyStats *stock =
            findCell(cells, "stock", attacker);
        if (!stock)
            continue;
        for (const arena::Cell &c : cells)
            if (c.attacker == attacker && c.defense != "stock" &&
                c.stats.charAccuracy() >
                    stock->charAccuracy() + 1e-9)
                monotonic = false;
    }

    // --- Invariant: graceful adaptation pays on the degradable rows.
    auto robustWins = [&](const char *prefix) {
        const eval::AccuracyStats *naive =
            findCell(cells, prefix, "naive");
        const eval::AccuracyStats *robust =
            findCell(cells, prefix, "robust");
        return naive && robust &&
               robust->charAccuracy() > naive->charAccuracy();
    };
    const bool beatsRate = robustWins("rate");
    const bool beatsQuant = robustWins("quant");

    // --- Invariant: every defended cell accounts defender cost.
    bool overheadEverywhere = true;
    for (const arena::Cell &c : cells)
        if (c.defense != "stock" && c.overhead.cpuNs == 0)
            overheadEverywhere = false;

    // --- Invariant: a full grid, one cell per (defense, attacker).
    std::set<std::pair<std::string, std::string>> pairs;
    for (const arena::Cell &c : cells)
        pairs.emplace(c.defense, c.attacker);
    const bool gridComplete =
        cells.size() >= 6 && pairs.size() == cells.size();

    std::printf("\ndeterministic across threads (1 vs %zu): %s\n",
                altThreads, deterministic ? "yes" : "NO");
    std::printf("stock >= defended in every column:        %s\n",
                monotonic ? "yes" : "NO");
    std::printf("robust beats naive on rate-limit row:     %s\n",
                beatsRate ? "yes" : "NO");
    std::printf("robust beats naive on quantization row:   %s\n",
                beatsQuant ? "yes" : "NO");
    std::printf("defender overhead reported in all cells:  %s\n",
                overheadEverywhere ? "yes" : "NO");
    std::printf(">= 6 cells, one per (defense, attacker):  %s\n",
                gridComplete ? "yes" : "NO");

    auto jbool = [](bool b) { return b ? "true" : "false"; };
    std::string json = "{\n";
    json += "  \"bench\": \"arena\",\n";
    json += "  \"trials_per_cell\": " + std::to_string(trials) + ",\n";
    json += "  \"threads_checked\": [1, " +
            std::to_string(altThreads) + "],\n";
    json += std::string("  \"deterministic_across_threads\": ") +
            jbool(deterministic) + ",\n";
    json += std::string("  \"monotonic_vs_stock\": ") +
            jbool(monotonic) + ",\n";
    json += std::string("  \"robust_beats_naive_rate\": ") +
            jbool(beatsRate) + ",\n";
    json += std::string("  \"robust_beats_naive_quant\": ") +
            jbool(beatsQuant) + ",\n";
    json +=
        std::string("  \"all_defended_cells_report_overhead\": ") +
        jbool(overheadEverywhere) + ",\n";
    json += "  \"cells\": " + arena::Matrix::cellsJson(cells) + "\n";
    json += "}";
    bench::writeJsonMirror("BENCH_arena.json", json);
    std::printf("\nwrote BENCH_arena.json (%zu cells)\n",
                cells.size());

    if (!(deterministic && monotonic && overheadEverywhere &&
          gridComplete)) {
        std::printf("arena: an invariant failed\n");
        return 1;
    }
    return 0;
}
