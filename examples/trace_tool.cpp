/**
 * @file
 * Trace capture & replay tool — the src/trace/ subsystem as a CLI.
 *
 *   trace_tool record <out.gpct> [--trials N] [--phone P]
 *              [--keyboard K] [--app A] [--seed N]
 *       Run a live experiment and record it to a trace file.
 *
 *   trace_tool info <trace.gpct | dir>
 *       Print header + record statistics (directories are scanned
 *       as a corpus).
 *
 *   trace_tool verify <trace.gpct>
 *       Validate every frame; exit status 1 on any corruption.
 *
 *   trace_tool replay <trace.gpct>
 *       Re-run the recorded counter stream through the inference
 *       pipeline (training the model for the recorded configuration
 *       if needed) and score it against the recorded ground truth.
 *
 *   trace_tool stats <trace.gpct>
 *       Stream the file once and print per-record-kind counts plus
 *       the inter-reading-interval distribution (works on v1 and v2
 *       files; v2 adds the Fault kind).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>

#include "attack/model_store.h"
#include "eval/experiment.h"
#include "obs/log_histogram.h"
#include "trace/trace_corpus.h"
#include "trace/trace_reader.h"
#include "trace/trace_replayer.h"
#include "util/logging.h"
#include "util/table.h"

using namespace gpusc;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> [args]\n"
        "  record <out.gpct> [--trials N] [--phone P]\n"
        "         [--keyboard K] [--app A] [--seed N]\n"
        "                       capture a live session to a trace\n"
        "  info   <file|dir>    print trace/corpus statistics\n"
        "  verify <file>        validate every frame (exit 1 if bad)\n"
        "  replay <file>        replay through the inference pipeline\n"
        "  stats  <file>        per-kind record counts + the\n"
        "                       inter-reading-interval histogram\n",
        argv0);
}

bool
isDirectory(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::string
fmtDuration(SimTime t)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f s", t.ns() / 1e9);
    return buf;
}

void
printStats(const trace::TraceStats &s)
{
    Table table({"metric", "value"});
    table.addRow({"records", std::to_string(s.records)});
    table.addRow({"readings", std::to_string(s.readings)});
    table.addRow({"key presses", std::to_string(s.keyPresses)});
    table.addRow({"backspaces", std::to_string(s.backspaces)});
    table.addRow({"popup shows", std::to_string(s.popupShows)});
    table.addRow({"page switches", std::to_string(s.pageSwitches)});
    table.addRow({"app switches", std::to_string(s.appSwitches)});
    table.addRow({"trials", std::to_string(s.trials)});
    table.addRow({"fault events", std::to_string(s.faults)});
    table.addRow({"duration", fmtDuration(s.duration)});
    table.print("trace stats");
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "record: missing output path\n");
        return 2;
    }
    const std::string out = argv[0];
    eval::ExperimentConfig cfg;
    cfg.recordTracePath = out;
    int trials = 5;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--trials")
            trials = std::atoi(value());
        else if (arg == "--phone")
            cfg.device.phone = value();
        else if (arg == "--keyboard")
            cfg.device.keyboard = value();
        else if (arg == "--app")
            cfg.device.app = value();
        else if (arg == "--seed")
            cfg.seed = std::uint64_t(std::atoll(value()));
        else
            fatal("record: unknown option '%s'", arg.c_str());
    }

    eval::ExperimentRunner runner(cfg, attack::ModelStore::global());
    if (!runner.recording()) {
        std::fprintf(stderr, "record: cannot open '%s' for writing\n",
                     out.c_str());
        return 1;
    }
    const eval::AccuracyStats stats = runner.runTrials(trials, 8, 16);
    const trace::TraceError err = runner.finishRecording();
    if (err != trace::TraceError::None) {
        std::fprintf(stderr, "recording failed: %s\n",
                     trace::traceErrorString(err));
        return 1;
    }
    std::printf("recorded %d trials to %s (live text accuracy %.0f%%)\n",
                trials, out.c_str(), 100.0 * stats.textAccuracy());
    return 0;
}

int
cmdInfo(const std::string &path)
{
    if (isDirectory(path)) {
        trace::TraceCorpus corpus;
        if (corpus.scanDirectory(path) != trace::TraceError::None)
            return 1;
        std::printf("corpus: %zu traces, %zu rejected\n",
                    corpus.traces().size(), corpus.rejected().size());
        for (const auto &[p, e] : corpus.rejected())
            std::printf("  rejected %s: %s\n", p.c_str(),
                        trace::traceErrorString(e));
        for (const std::string &key : corpus.deviceKeys())
            std::printf("  device %s: %zu traces\n", key.c_str(),
                        corpus.forDevice(key).size());
        printStats(corpus.aggregate());
        return 0;
    }

    trace::TraceCorpus corpus;
    if (corpus.addFile(path) != trace::TraceError::None) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     trace::traceErrorString(
                         corpus.rejected().back().second));
        return 1;
    }
    const trace::TraceInfo &info = corpus.traces().front();
    std::printf("trace   : %s\n", path.c_str());
    std::printf("device  : %s\n", info.header.deviceKey.c_str());
    std::printf("interval: %lld ms\n",
                (long long)info.header.samplingInterval.ns() /
                    1000000ll);
    std::printf("seed    : %llu\n",
                (unsigned long long)info.header.seed);
    printStats(info.stats);
    return 0;
}

int
cmdVerify(const std::string &path)
{
    std::uint64_t records = 0;
    trace::TraceHeader header;
    std::vector<trace::TraceRecord> faults;
    const trace::TraceError err = trace::TraceReader::verifyFile(
        path, &records, &header, &faults);
    if (err != trace::TraceError::None) {
        std::printf("%s: CORRUPT after %llu records: %s\n",
                    path.c_str(), (unsigned long long)records,
                    trace::traceErrorString(err));
        return 1;
    }
    std::printf("%s: OK (v%u, %llu records, device %s)\n",
                path.c_str(), unsigned(header.version),
                (unsigned long long)records,
                header.deviceKey.c_str());
    if (!faults.empty()) {
        std::printf("fault events: %zu\n", faults.size());
        for (const trace::TraceRecord &f : faults)
            std::printf("  %10.3f ms  %-14s detail=%llu\n",
                        f.time.millis(),
                        kgsl::faultKindString(f.fault),
                        (unsigned long long)f.faultDetail);
    }
    return 0;
}

int
cmdReplay(const std::string &path)
{
    // Resolve the model for the recorded configuration: the trace
    // header carries the full DeviceConfig, so an untrained store
    // can train the matching model on the spot.
    trace::TraceHeader header;
    const trace::TraceError verr =
        trace::TraceReader::verifyFile(path, nullptr, &header);
    if (verr != trace::TraceError::None) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     trace::traceErrorString(verr));
        return 1;
    }
    attack::ModelStore &store = attack::ModelStore::global();
    store.getOrTrain(header.device, attack::OfflineTrainer{});

    trace::TraceReplayer replayer(store);
    const trace::TraceError err = replayer.replayFile(path);
    if (err != trace::TraceError::None) {
        std::fprintf(stderr, "replay failed: %s\n",
                     trace::traceErrorString(err));
        return 1;
    }

    std::printf("replayed %llu readings, %zu trials\n",
                (unsigned long long)replayer.readingsReplayed(),
                replayer.trials().size());
    int exact = 0;
    for (const trace::TraceReplayer::Trial &t : replayer.trials()) {
        const bool hit = t.truth == t.inferred;
        exact += hit;
        std::printf("  %s truth='%s' inferred='%s'\n",
                    hit ? " ok " : "MISS", t.truth.c_str(),
                    t.inferred.c_str());
    }
    if (!replayer.trials().empty())
        std::printf("text accuracy: %d/%zu\n", exact,
                    replayer.trials().size());
    return 0;
}

int
cmdStats(const std::string &path)
{
    trace::TraceReader reader;
    const trace::TraceError oerr = reader.open(path);
    if (oerr != trace::TraceError::None) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     trace::traceErrorString(oerr));
        return 1;
    }

    // Per-kind counts, indexed by the on-disk kind tag (1-based,
    // append-only across versions).
    static constexpr const char *kKindNames[] = {
        "reading",     "key press",   "backspace",
        "page switch", "app switch",  "popup show",
        "trial begin", "trial end",   "fault",
    };
    constexpr std::size_t kNumKinds =
        sizeof(kKindNames) / sizeof(kKindNames[0]);
    std::uint64_t counts[kNumKinds] = {};

    // Inter-reading intervals, in microseconds: for a clean capture
    // this is a spike at the sampling interval; wakeup jitter, CPU
    // contention and sampler suspensions show up as spread.
    obs::LogHistogram intervals;
    bool haveLast = false;
    SimTime lastReading;

    trace::TraceRecord rec;
    bool eof = false;
    for (;;) {
        const trace::TraceError err = reader.next(rec, eof);
        if (err != trace::TraceError::None) {
            std::fprintf(stderr,
                         "%s: CORRUPT after %llu records: %s\n",
                         path.c_str(),
                         (unsigned long long)reader.recordCount(),
                         trace::traceErrorString(err));
            return 1;
        }
        if (eof)
            break;
        const std::size_t idx = std::size_t(rec.kind) - 1;
        if (idx < kNumKinds)
            ++counts[idx];
        if (rec.kind == trace::RecordKind::Reading) {
            if (haveLast) {
                const SimTime gap = rec.time - lastReading;
                intervals.add(std::uint64_t(
                    gap.ns() < 0 ? 0 : gap.ns() / 1000));
            }
            haveLast = true;
            lastReading = rec.time;
        }
    }

    std::printf("trace  : %s (v%u, device %s)\n", path.c_str(),
                unsigned(reader.header().version),
                reader.header().deviceKey.c_str());
    Table table({"record kind", "count"});
    for (std::size_t i = 0; i < kNumKinds; ++i)
        table.addRow({kKindNames[i], std::to_string(counts[i])});
    table.addRow({"total", std::to_string(reader.recordCount())});
    table.print("record counts");

    if (!intervals.empty()) {
        Table gaps({"metric", "value"});
        gaps.addRow({"intervals", std::to_string(intervals.count())});
        gaps.addRow({"mean us", Table::num(intervals.mean())});
        gaps.addRow({"min us",
                     std::to_string(intervals.min())});
        gaps.addRow({"p50 us", std::to_string(intervals.p50())});
        gaps.addRow({"p90 us", std::to_string(intervals.p90())});
        gaps.addRow({"p99 us", std::to_string(intervals.p99())});
        gaps.addRow({"max us",
                     std::to_string(intervals.max())});
        gaps.print("inter-reading intervals");
        std::printf("%s", intervals.render().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        usage(argv[0]);
        return 0;
    }
    if (cmd == "record")
        return cmdRecord(argc - 2, argv + 2);
    if (argc < 3) {
        usage(argv[0]);
        return 2;
    }
    if (cmd == "info")
        return cmdInfo(argv[2]);
    if (cmd == "verify")
        return cmdVerify(argv[2]);
    if (cmd == "replay")
        return cmdReplay(argv[2]);
    if (cmd == "stats")
        return cmdStats(argv[2]);
    usage(argv[0]);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}
