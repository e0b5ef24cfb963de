/**
 * @file
 * Offline Phase walk-through (paper §3.2/§6).
 *
 * Plays the attacker's role: enumerates the counters through the
 * GL_AMD_performance_monitor-style interface (how the paper found the
 * Table 1 counters), trains signature models for several device
 * configurations with the input-injection bot, packs them into the
 * preloaded model store, round-trips the store through a file, and
 * prints the §7.6 size accounting.
 *
 *   offline_training [store-path]   (default: gpusc_models.bin in the
 *                                    working directory)
 */

#include <cstdio>

#include "android/gles.h"
#include "attack/model_store.h"
#include "attack/trainer.h"
#include "util/logging.h"
#include "util/table.h"

using namespace gpusc;

int
main(int argc, char **argv)
{
    // --- Counter discovery (paper §3.3).
    std::printf("enumerating perf-monitor groups (Table 1 "
                "selection):\n");
    for (const auto &group : android::gles::getPerfMonitorGroupsAMD()) {
        if (group.name != "LRZ" && group.name != "RAS" &&
            group.name != "VPC")
            continue;
        std::printf("  group %s (0x%x): %zu countables, e.g. %s\n",
                    group.name.c_str(), group.id,
                    group.counters.size(),
                    android::gles::getPerfMonitorCounterStringAMD(
                        group.id, group.counters.at(
                                      group.name == "LRZ" ? 13 : 4))
                        .c_str());
    }

    // --- Train a handful of configurations.
    attack::ModelStore store;
    const attack::OfflineTrainer trainer;
    struct ConfigSpec
    {
        const char *phone;
        const char *keyboard;
    };
    const ConfigSpec configs[] = {
        {"oneplus8pro", "gboard"},
        {"oneplus8pro", "swift"},
        {"pixel2", "gboard"},
        {"s21", "gboard"},
    };
    Table table({"configuration", "labels", "C_th", "model size"});
    for (const ConfigSpec &spec : configs) {
        android::DeviceConfig cfg;
        cfg.phone = spec.phone;
        cfg.keyboard = spec.keyboard;
        inform("training %s + %s ...", spec.phone, spec.keyboard);
        const attack::SignatureModel &m = store.getOrTrain(cfg, trainer);
        table.addRow({m.modelKey(),
                      std::to_string(m.signatures().size()),
                      Table::num(m.threshold(), 4),
                      Table::num(double(m.byteSize()) / 1024.0, 2) +
                          " kB"});
    }
    table.print("\ntrained models");

    // --- Persist the preloaded asset and read it back.
    const std::string path = argc > 1 ? argv[1] : "gpusc_models.bin";
    if (!store.saveToFile(path))
        fatal("cannot write %s", path.c_str());
    const attack::ModelStore loaded = attack::ModelStore::loadFromFile(path);
    std::printf("\nstore round trip: %zu models, %zu bytes -> %s\n",
                loaded.size(), store.totalByteSize(),
                loaded.size() == store.size() ? "OK" : "MISMATCH");

    const double avgKb =
        double(store.totalByteSize()) / double(store.size()) / 1024.0;
    std::printf("average model size: %.2f kB (paper: 3.59 kB)\n",
                avgKb);
    std::printf("3000-model APK payload: %.1f MB (paper: 13.40 MB, "
                "Play Store cap 100 MB)\n",
                3000.0 * avgKb / 1024.0);
    return 0;
}
