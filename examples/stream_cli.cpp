/**
 * @file
 * Streaming ingest service CLI — the src/stream/ subsystem end to
 * end.
 *
 *   stream_cli replay <trace.gpct> [--sessions N] [--threads N]
 *              [--policy block|shed-oldest|shed-newest] [--ring N]
 *              [--adapt on|off] [--metrics-out FILE]
 *       Trace-replay ingest: stream the recorded counter readings
 *       through the service. Session 0 is scored against the trace's
 *       ground-truth trials; with --sessions N the same stream is
 *       fanned out to N concurrent sessions and pumped across a
 *       thread pool. Exits 1 if the aggregated audit funnel does not
 *       partition (changes_in == accepted + split + dup + noise +
 *       suppressed) or the shed audit disagrees with the shed
 *       counters, so CI can use this binary as a smoke check.
 *
 *   stream_cli live [--trials N] [--seed N] [--policy ...]
 *              [--ring N] [--sessions N] [--adapt on|off]
 *              [--metrics-out FILE]
 *       Live-sim ingest: run a simulated victim device, tap the live
 *       sampler's reading stream into the service, and compare the
 *       streamed session's inferred text with the live pipeline's
 *       (bit-identical under the lossless Block policy with
 *       adaptation off).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "attack/model_store.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "obs/live/live_plane.h"
#include "stream/ingest_service.h"
#include "trace/trace_reader.h"
#include "util/logging.h"

using namespace gpusc;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <mode> [options]\n"
        "  replay <trace.gpct>   stream a recorded trace through the\n"
        "                        ingest service (session 0 is scored)\n"
        "  live                  tap a simulated device's sampler\n"
        "                        stream into the ingest service\n"
        "options:\n"
        "  --sessions N          concurrent sessions fed the stream\n"
        "  --threads N           pump worker threads (replay fan-out)\n"
        "  --policy P            block | shed-oldest | shed-newest\n"
        "  --ring N              per-session ingest queue depth\n"
        "  --adapt on|off        online template adaptation\n"
        "  --trials N            credential trials (live mode)\n"
        "  --seed N              simulation seed (live mode)\n"
        "  --metrics-out FILE    write aggregated metrics JSON\n"
        "  --live-metrics SINK   live telemetry plane: an integer is\n"
        "                        an HTTP port (0 = ephemeral), else a\n"
        "                        JSONL window-record path (plus a\n"
        "                        final SINK.prom Prometheus text)\n"
        "  --slo FILE            SLO watchdog rules (one per line,\n"
        "                        key=value fields; see DESIGN.md)\n"
        "  --serve-ms N          keep the endpoint alive N ms after\n"
        "                        the run so scrapers can connect\n",
        argv0);
}

struct Options
{
    std::string tracePath;
    std::size_t sessions = 1;
    std::size_t threads = 1;
    stream::IngestService::Backpressure policy =
        stream::IngestService::Backpressure::Block;
    std::size_t ringCapacity = 256;
    bool adapt = false;
    int trials = 3;
    std::uint64_t seed = 1;
    std::string metricsOut;
    std::string liveMetrics;
    std::string sloPath;
    long serveMs = 0;
};

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    int i = 0;
    const auto value = [&]() -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for %s", argv[i]);
        return argv[++i];
    };
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sessions")
            opt.sessions = std::size_t(std::atoll(value()));
        else if (arg == "--threads")
            opt.threads = std::size_t(std::atoll(value()));
        else if (arg == "--ring")
            opt.ringCapacity = std::size_t(std::atoll(value()));
        else if (arg == "--trials")
            opt.trials = std::atoi(value());
        else if (arg == "--seed")
            opt.seed = std::uint64_t(std::atoll(value()));
        else if (arg == "--metrics-out")
            opt.metricsOut = value();
        else if (arg == "--live-metrics")
            opt.liveMetrics = value();
        else if (arg == "--slo")
            opt.sloPath = value();
        else if (arg == "--serve-ms")
            opt.serveMs = std::atol(value());
        else if (arg == "--adapt") {
            const std::string v = value();
            opt.adapt = v == "on" || v == "1" || v == "true";
        } else if (arg == "--policy") {
            const std::string v = value();
            if (v == "block")
                opt.policy =
                    stream::IngestService::Backpressure::Block;
            else if (v == "shed-oldest")
                opt.policy =
                    stream::IngestService::Backpressure::ShedOldest;
            else if (v == "shed-newest")
                opt.policy =
                    stream::IngestService::Backpressure::ShedNewest;
            else
                fatal("unknown backpressure policy '%s'", v.c_str());
        } else
            fatal("unknown option '%s'", arg.c_str());
    }
    if (opt.sessions < 1)
        opt.sessions = 1;
    return opt;
}

stream::IngestService::Params
serviceParams(const Options &opt)
{
    stream::IngestService::Params p;
    p.backpressure = opt.policy;
    p.sessions.session.ringCapacity = opt.ringCapacity;
    p.sessions.session.adaptation = opt.adapt;
    return p;
}

bool
isInteger(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (c < '0' || c > '9')
            return false;
    return true;
}

std::string
readTextFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal("cannot open '%s'", path.c_str());
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

/** Wire --live-metrics / --slo into the service's telemetry plane. */
void
maybeEnableLivePlane(stream::IngestService &svc, const Options &opt)
{
    if (opt.liveMetrics.empty() && opt.sloPath.empty())
        return;
    obs::live::LiveConfig cfg;
    if (isInteger(opt.liveMetrics))
        cfg.httpPort = std::atoi(opt.liveMetrics.c_str());
    else
        cfg.jsonlPath = opt.liveMetrics;
    if (!opt.sloPath.empty()) {
        obs::live::SloParseError perr;
        cfg.rules = obs::live::SloEngine::parseRules(
            readTextFile(opt.sloPath), &perr);
        if (!perr.message.empty())
            fatal("--slo %s:%zu: %s", opt.sloPath.c_str(), perr.line,
                  perr.message.c_str());
    }
    obs::live::LivePlane &plane = svc.enableLivePlane(std::move(cfg));
    if (const obs::live::HttpEndpoint *ep = plane.endpoint())
        std::printf("live endpoint: http://127.0.0.1:%u/metrics\n",
                    unsigned(ep->port()));
}

/**
 * Windows-vs-snapshot reconciliation: the sum of every retained
 * window's counter deltas must equal the end-of-run cumulative value
 * for each service counter, and the synthetic funnel.* counters must
 * equal the aggregated audit counts — no delta lost to roll-up or
 * window boundaries. @return true iff every counter reconciles.
 */
bool
reconcileLivePlane(const stream::IngestService &svc,
                   const obs::AuditTrail &audit)
{
    const obs::live::LivePlane *plane = svc.livePlane();
    if (plane == nullptr)
        return true;
    const std::map<std::string, std::uint64_t> totals =
        plane->series().totalCounterDeltas();
    const auto windowSum = [&](const std::string &name) {
        const auto it = totals.find(name);
        return it == totals.end() ? std::uint64_t(0) : it->second;
    };
    bool ok = true;
    const auto &counters = svc.serviceTelemetry().metrics.counters();
    for (const auto &[name, c] : counters) {
        if (windowSum(name) != c->value()) {
            ok = false;
            std::printf("  window sum for %s: %llu != snapshot "
                        "%llu\n",
                        name.c_str(),
                        (unsigned long long)windowSum(name),
                        (unsigned long long)c->value());
        }
    }
    for (std::size_t d = 0; d < obs::kNumDecisions; ++d) {
        const obs::Decision dec = obs::Decision(d);
        // Alert transitions recorded while the *final* window closed
        // land after the last observe by construction; they are
        // audited but have no window to reconcile against.
        if (dec == obs::Decision::AlertFired ||
            dec == obs::Decision::AlertResolved)
            continue;
        const std::string name =
            std::string("funnel.") + obs::decisionName(dec);
        if (windowSum(name) != audit.count(dec)) {
            ok = false;
            std::printf("  window sum for %s: %llu != audited "
                        "%llu\n",
                        name.c_str(),
                        (unsigned long long)windowSum(name),
                        (unsigned long long)audit.count(dec));
        }
    }
    if (windowSum("funnel.changes_in") != audit.changesAudited()) {
        ok = false;
        std::printf("  window sum for funnel.changes_in: %llu != "
                    "audited %llu\n",
                    (unsigned long long)windowSum("funnel.changes_in"),
                    (unsigned long long)audit.changesAudited());
    }
    std::printf("window reconciliation: %s (%llu windows closed, "
                "%llu fine->coarse, %llu coarse->archive)\n",
                ok ? "OK" : "VIOLATED",
                (unsigned long long)plane->series().windowsClosed(),
                (unsigned long long)plane->series().rollupsFine(),
                (unsigned long long)plane->series().rollupsCoarse());
    return ok;
}

/** Hold the endpoint open post-run so external scrapers (CI curl)
 *  can connect; sim results are already final by this point. */
void
maybeServe(const stream::IngestService &svc, const Options &opt)
{
    const obs::live::LivePlane *plane = svc.livePlane();
    if (opt.serveMs <= 0 || plane == nullptr ||
        plane->endpoint() == nullptr)
        return;
    std::printf("serving http://127.0.0.1:%u for %ld ms...\n",
                unsigned(plane->endpoint()->port()), opt.serveMs);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt.serveMs));
}

const char *
policyName(stream::IngestService::Backpressure p)
{
    switch (p) {
      case stream::IngestService::Backpressure::Block:
        return "block";
      case stream::IngestService::Backpressure::ShedOldest:
        return "shed-oldest";
      case stream::IngestService::Backpressure::ShedNewest:
        return "shed-newest";
    }
    return "?";
}

/**
 * Print service stats, validate the aggregated change funnel and the
 * shed audit, and optionally export the merged metrics JSON.
 * @return true iff both identities hold.
 */
bool
reportAndCheck(stream::IngestService &svc, const Options &opt)
{
    std::printf("sessions   : %zu held, %llu evicted\n",
                svc.sessions().size(),
                (unsigned long long)svc.sessions().sessionsEvicted());
    std::printf("memory     : %zu bytes of %zu budget\n",
                svc.sessions().memoryUseBytes(),
                svc.sessions().params().memoryBudgetBytes);
    std::printf("readings   : %llu offered, %llu shed-oldest, "
                "%llu shed-newest, %llu block-drains\n",
                (unsigned long long)svc.readingsOffered(),
                (unsigned long long)svc.readingsShedOldest(),
                (unsigned long long)svc.readingsShedNewest(),
                (unsigned long long)svc.blockDrains());

    // Close the live plane's open window before aggregating, so the
    // windowed totals and the snapshot describe the same final state.
    svc.finishLivePlane();

    obs::Telemetry agg;
    svc.aggregateTelemetry(agg);
    std::printf("funnel     : %s\n", agg.audit.funnelJson().c_str());

    // Effective classify cost across every session.
    const auto &hists = agg.metrics.histograms();
    if (const auto it = hists.find("latency.attack.classify");
        it != hists.end() && it->second->count() > 0)
        std::printf("classify   : %.1f ns/op effective over %llu ops\n",
                    it->second->mean(),
                    (unsigned long long)it->second->count());

    const obs::AuditTrail &audit = agg.audit;
    const std::uint64_t parts =
        audit.count(obs::Decision::AcceptedKey) +
        audit.count(obs::Decision::SplitRepaired) +
        audit.count(obs::Decision::DuplicationDrop) +
        audit.count(obs::Decision::NoiseRejected) +
        audit.count(obs::Decision::SuppressedAppSwitch);
    const bool funnelOk = audit.changesAudited() == parts;
    std::printf("funnel identity: %s (changes_in=%llu, parts=%llu)\n",
                funnelOk ? "OK" : "VIOLATED",
                (unsigned long long)audit.changesAudited(),
                (unsigned long long)parts);

    const std::uint64_t shedAudited =
        audit.count(obs::Decision::ShedOldestDrop) +
        audit.count(obs::Decision::ShedNewestDrop);
    const std::uint64_t shedCounted =
        svc.readingsShedOldest() + svc.readingsShedNewest();
    const bool shedsOk = shedAudited == shedCounted;
    if (!shedsOk)
        std::printf("shed audit MISMATCH: audited %llu, counted "
                    "%llu\n",
                    (unsigned long long)shedAudited,
                    (unsigned long long)shedCounted);

    const bool reconOk = reconcileLivePlane(svc, audit);
    if (const obs::live::LivePlane *plane = svc.livePlane())
        std::printf("alerts     : %s\n", plane->slo().toJson().c_str());

    if (!opt.metricsOut.empty())
        obs::Telemetry::writeFile(opt.metricsOut, agg.metricsJson());
    return funnelOk && shedsOk && reconOk;
}

int
cmdReplay(const Options &opt)
{
    // The trace header carries the full device configuration, so an
    // untrained store can train the matching model on the spot.
    trace::TraceHeader header;
    const trace::TraceError verr =
        trace::TraceReader::verifyFile(opt.tracePath, nullptr,
                                       &header);
    if (verr != trace::TraceError::None) {
        std::fprintf(stderr, "%s: %s\n", opt.tracePath.c_str(),
                     trace::traceErrorString(verr));
        return 1;
    }
    attack::ModelStore &store = attack::ModelStore::global();
    const attack::SignatureModel &model =
        store.getOrTrain(header.device, attack::OfflineTrainer{});

    stream::IngestService svc(model, serviceParams(opt));
    maybeEnableLivePlane(svc, opt);
    std::printf("ingesting %s (policy %s, ring %zu, adapt %s)\n",
                opt.tracePath.c_str(), policyName(opt.policy),
                opt.ringCapacity, opt.adapt ? "on" : "off");

    // Session 0 takes the trace through the scored path.
    std::vector<stream::IngestService::Trial> trials;
    const trace::TraceError err =
        svc.ingestTraceFile(opt.tracePath, 0, &trials);
    if (err != trace::TraceError::None) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     trace::traceErrorString(err));
        return 1;
    }
    int exact = 0;
    for (const stream::IngestService::Trial &t : trials) {
        const bool hit = t.truth == t.inferred;
        exact += hit;
        std::printf("  %s truth='%s' inferred='%s'\n",
                    hit ? " ok " : "MISS", t.truth.c_str(),
                    t.inferred.c_str());
    }
    if (!trials.empty())
        std::printf("text accuracy: %d/%zu\n", exact, trials.size());

    // Fan the same stream out to more sessions and pump across the
    // pool — the multiplexing path.
    if (opt.sessions > 1) {
        std::vector<attack::Reading> readings;
        {
            trace::TraceReader reader;
            if (reader.open(opt.tracePath) !=
                trace::TraceError::None) {
                std::fprintf(stderr, "reopen failed\n");
                return 1;
            }
            trace::TraceRecord rec;
            bool eof = false;
            while (reader.next(rec, eof) ==
                       trace::TraceError::None &&
                   !eof)
                if (rec.kind == trace::RecordKind::Reading)
                    readings.push_back(rec.reading);
        }
        exec::ThreadPool pool(opt.threads);
        std::size_t fed = 0;
        for (const attack::Reading &r : readings) {
            for (stream::SessionId sid = 1; sid < opt.sessions;
                 ++sid)
                svc.offer(sid, r);
            if (++fed % 64 == 0)
                svc.pump(pool);
        }
        svc.pump(pool);
        std::printf("fanned out to %zu sessions over %zu threads\n",
                    opt.sessions, pool.size());
    }

    const bool ok = reportAndCheck(svc, opt);
    maybeServe(svc, opt);
    return ok ? 0 : 1;
}

int
cmdLive(const Options &opt)
{
    eval::ExperimentConfig cfg;
    cfg.seed = opt.seed;
    attack::ModelStore store;
    eval::ExperimentRunner runner(cfg, store);

    stream::IngestService svc(runner.model(), serviceParams(opt));
    maybeEnableLivePlane(svc, opt);
    // The sampler tap sees exactly the reading stream the live
    // pipeline consumes; the service ingests the same stream into
    // its own detached sessions.
    runner.eavesdropper().setReadingTap(
        [&](const attack::Reading &r) {
            for (stream::SessionId sid = 0; sid < opt.sessions;
                 ++sid)
                svc.offer(sid, r);
        });

    std::printf("live-sim ingest: %d trials, %zu sessions, policy "
                "%s, adapt %s\n",
                opt.trials, opt.sessions, policyName(opt.policy),
                opt.adapt ? "on" : "off");
    const eval::AccuracyStats live =
        runner.runTrials(opt.trials, 8, 12);
    svc.pump();

    const stream::Session *streamed = svc.sessions().find(0);
    if (!streamed) {
        std::fprintf(stderr, "no streamed session materialised\n");
        return 1;
    }
    const std::string streamedText =
        streamed->eavesdropper().inferredText();
    const std::string liveText =
        runner.eavesdropper().inferredText();
    const bool match = streamedText == liveText;
    std::printf("live text accuracy : %.0f%% over %zu trials\n",
                100.0 * live.textAccuracy(), live.trials());
    std::printf("streamed == live   : %s\n",
                match ? "yes (bit-identical)" : "NO");
    const bool lossless =
        opt.policy == stream::IngestService::Backpressure::Block &&
        !opt.adapt;
    if (!lossless)
        std::printf("  (divergence is expected with adaptation or "
                    "lossy backpressure)\n");

    const bool checksOk = reportAndCheck(svc, opt);
    maybeServe(svc, opt);
    return checksOk && (match || !lossless) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string mode = argv[1];
    if (mode == "--help" || mode == "-h") {
        usage(argv[0]);
        return 0;
    }
    if (mode == "replay") {
        if (argc < 3 || argv[2][0] == '-') {
            usage(argv[0]);
            return 2;
        }
        Options opt = parseOptions(argc - 3, argv + 3);
        opt.tracePath = argv[2];
        return cmdReplay(opt);
    }
    if (mode == "live")
        return cmdLive(parseOptions(argc - 2, argv + 2));
    usage(argv[0]);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
}
