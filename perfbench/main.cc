/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <campaign|campaign_anim|rescore> --seed <n>
 *             --seconds <s> --trace <0|1> --work-dir <dir>
 *             [--commit <id>] [--source-digest <hex>]
 *
 * Sets the workload up kSetups times (cold training + corpus
 * recording), measures it in a closed loop for --seconds, self-checks
 * every output, and prints a human-readable report followed, as the
 * last line, by one JSON result object. --trace 0 reports the
 * end-to-end metrics; --trace 1 splits the time between an untraced
 * and a traced measured phase and reports the per-layer metrics, then
 * writes the benchmark's spans to <work-dir>/spans-<workload>-<seed>.json.
 * Exits 1 when any self-check fails, 2 on bad arguments.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "simd/kernels.h"
#include "util/logging.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::string(v) == "1";
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--source-digest")
            a.sourceDigest = v;
        else
            return false;
    }
    return argc % 2 == 1 && findWorkload(a.workload) && a.seconds > 0;
}

/** Named pass/fail self-checks; any failure fails the run. */
struct Checks
{
    std::vector<std::pair<std::string, bool>> all;
    void add(const std::string &name, bool ok) { all.emplace_back(name, ok); }
    bool ok() const
    {
        for (const auto &[name, pass] : all)
            if (!pass)
                return false;
        return true;
    }
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is KiB
}

bool
sameTrials(const std::vector<eval::TrialResult> &a,
           const std::vector<eval::TrialResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].truth != b[i].truth || a[i].inferred != b[i].inferred)
            return false;
    return true;
}

eval::AccuracyStats
accuracy(const std::vector<eval::TrialResult> &trials)
{
    eval::AccuracyStats s;
    for (const eval::TrialResult &t : trials)
        s.add(t.truth, t.inferred);
    return s;
}

/** Digest over everything the simulator decided in this run. */
std::uint64_t
simDigest(const SimDigest &d, const CampaignResult &c, const Setup &s)
{
    std::uint64_t h = d.hash;
    for (const eval::TrialResult &t : c.accTrials)
        h = fnv1a(t.truth + '\n' + t.inferred + '\n', h);
    for (const CorpusFile &f : s.corpus)
        for (const eval::TrialResult &t : f.live)
            h = fnv1a(t.truth + '\n' + t.inferred + '\n', h);
    return h;
}

std::string
metaJson(const Args &a)
{
    std::string m = "{\"workload\": ";
    appendJsonString(m, a.workload);
    m += ", \"seed\": " + std::to_string(a.seed);
    m += ", \"seconds\": ";
    appendJsonNumber(m, a.seconds);
    m += ", \"trace\": " + std::to_string(int(a.trace));
    m += ", \"build_type\": ";
    appendJsonString(m, PERFBENCH_BUILD_TYPE);
    m += ", \"compiler\": ";
    appendJsonString(m, PERFBENCH_COMPILER);
    m += ", \"simd_backend\": ";
    appendJsonString(m, simd::backendName(simd::activeBackend()));
    m += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
    m += ", \"git_commit\": ";
    appendJsonString(m, a.commit);
    m += ", \"source_digest\": ";
    appendJsonString(m, a.sourceDigest);
    return m + "}";
}

/** Histogram sum/count/p50 of a latency stage, in ns. */
struct Stage
{
    double sum = 0.0;
    double count = 0.0;
    double p50 = 0.0;
};

Stage
stage(const obs::Telemetry &tel, const std::string &name)
{
    const auto &h = tel.metrics.histograms();
    const auto it = h.find("latency." + name);
    if (it == h.end())
        return {};
    return {it->second->sum(), double(it->second->count()),
            double(it->second->p50())};
}

double
counter(const obs::Telemetry &tel, const std::string &name)
{
    const auto &c = tel.metrics.counters();
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : double(it->second->value());
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

void
endToEnd(MetricSet &m, const Setup &setup, const Measured &run)
{
    const CampaignResult &camp = run.camp;
    const RescoreResult &resc = run.resc;
    std::vector<double> trains = setup.trainS;
    trains.insert(trains.end(), camp.trainS.begin(), camp.trainS.end());
    const eval::AccuracyStats acc = camp.accTrials.empty()
                                        ? resc.replayStats
                                        : accuracy(camp.accTrials);
    // Timed figures are fast deciles over the run's units (rounds,
    // trainings, passes), set-up time the median of its repeats, all
    // scaled to the reference host speed (kReferenceHostCallsPerS):
    // single-thread work by the kernel on this thread, ingest by the
    // kernel on the pump workers, set-up by the calls between set-ups.
    auto scaleBy = [](const std::vector<double> &calls) {
        return ratio(kReferenceHostCallsPerS, fastDecile(calls, true));
    };
    const double host = scaleBy(run.hostCallsPerS);
    const double pool = scaleBy(run.poolCallsPerS);
    const double setupHost = scaleBy(setup.hostCallsPerS);
    std::printf("# host kernel scale factors: thread %.4f, pump pool "
                "%.4f, set-up %.4f (reference %.0f calls/s)\n",
                host, pool, setupHost, kReferenceHostCallsPerS);
    auto time = [&](const char *name, double raw, const char *unit,
                    double scale) {
        std::printf("# raw %-28s %14.6g %s\n", name, raw, unit);
        m.add(name, raw / scale, unit);
    };
    auto rate = [&](const char *name, const std::vector<double> &units,
                    double scale) {
        const double raw = fastDecile(units, true);
        std::printf("# raw %-28s %14.6g 1/s\n", name, raw);
        m.add(name, raw * scale, "1/s");
    };
    time("setup_s", median(setup.setupS), "s", setupHost);
    time("train_s", fastDecile(trains, false), "s", host);
    rate("trials_per_s", camp.roundRates, host);
    m.add("key_acc", acc.charAccuracy(), "fraction");
    rate("replay_readings_per_s", resc.replayRates, host);
    rate("export_readings_per_s", resc.exportRates, host);
    rate("ingest_readings_per_s", resc.ingestRates, pool);
    time("ingest_lag_ms_p50", fastDecile(resc.lagP50Ms, false), "ms",
         pool);
    time("ingest_lag_ms_p99", fastDecile(resc.lagP99Ms, false), "ms",
         pool);
    m.add("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <%s> --seed <n> "
                     "--seconds <s> --trace <0|1> --work-dir <dir>\n",
                     workloadNames().c_str());
        return 2;
    }
    const Workload &w = *findWorkload(args.workload);
    const std::string meta = metaJson(args);
    std::printf("# meta %s\n", meta.c_str());

    const std::string dir = args.workDir + "/" + w.name + "-" +
                            std::to_string(args.seed) + "-" +
                            std::to_string(getpid());
    std::filesystem::create_directories(dir);

    Checks checks;
    Setup setup = runSetup(w, args.seed, dir);
    checks.add("repeated cold trainings serialise identically",
               setup.trainingsIdentical);
    checks.add("corpus recorded and decoded", setup.recordingOk);

    // Untraced measured phase (the whole run, or half of a traced run).
    const double untracedS = args.trace ? args.seconds / 2 : args.seconds;
    const Measured untraced =
        runMeasured(w, args.seed, setup, dir, untracedS, nullptr);
    const CampaignResult &camp = untraced.camp;
    const RescoreResult &resc = untraced.resc;
    const SimDigest digest = runDigestPass(w, args.seed, setup, nullptr);

    checks.add("measured trainings serialise identically",
               camp.trainingsIdentical);
    checks.add("replay reproduces the live inferred text",
               resc.replayMatchesLive);
    checks.add("exported files re-decode to the same readings",
               resc.exportRoundTrips);
    checks.add("ingest: funnel identity, no lost reading, same file "
               "same text",
               resc.ingestConsistent);
    if (w.accRounds > 0)
        checks.add("ExperimentRunner round 0 == ParallelRunner round 0",
                   sameTrials(digest.trials,
                              {camp.accTrials.begin(),
                               camp.accTrials.begin() + kRoundTrials}));

    FailureCount failures;
    failures.add(camp.trials, camp.failedTrials);
    failures.add(resc.fileOps, resc.fileFailures);
    failures.add(resc.readingsOffered, resc.readingsLost);

    MetricSet metrics;
    const eval::AccuracyStats acc = camp.accTrials.empty()
                                        ? resc.replayStats
                                        : accuracy(camp.accTrials);
    checks.add("host kernel does fixed work",
               untraced.hostKernelStable &&
                   untraced.hostChecksum == setup.hostChecksum);
    if (!args.trace) {
        endToEnd(metrics, setup, untraced);
    } else {
        Trace trace;
        const Measured traced =
            runMeasured(w, args.seed, setup, dir, untracedS, &trace);
        const CampaignResult &campT = traced.camp;
        const RescoreResult &rescT = traced.resc;
        obs::Telemetry digestTel;
        const SimDigest digestT =
            runDigestPass(w, args.seed, setup, &digestTel);
        const ProbeResult probe = runProbes(w, setup, dir);

        checks.add("traced and untraced trials identical",
                   sameTrials(campT.accTrials, camp.accTrials));
        checks.add("traced and untraced simulated counts identical",
                   digestT.hash == digest.hash);
        checks.add("traced trainings serialise identically",
                   campT.trainingsIdentical);
        checks.add("traced replay/export/ingest self-checks",
                   rescT.replayMatchesLive && rescT.exportRoundTrips &&
                       rescT.ingestConsistent);
        failures.add(campT.trials, campT.failedTrials);
        failures.add(rescT.fileOps, rescT.fileFailures);
        failures.add(rescT.readingsOffered, rescT.readingsLost);

        // Reconciliation: decode + detached feed account for replay,
        // all three timed in the same interleaved probe rounds.
        const double replayNs = probe.replayNsPerReading;
        const double parts = probe.decodeNsPerReading +
                             probe.feedNsPerReading;
        std::printf("# reconcile: decode %.1f + feed %.1f = %.1f ns vs "
                    "replay %.1f ns per reading (tolerance %.0f%%)\n",
                    probe.decodeNsPerReading, probe.feedNsPerReading,
                    parts, replayNs, kReconcileTolerance * 100);
        checks.add("decode + feed reconcile with replay",
                   std::abs(parts - replayNs) <=
                       kReconcileTolerance * replayNs);
        std::printf("# coverage: trial spans %.3f s of %.3f s in rounds\n",
                    campT.trialSpanS, campT.roundS);
        checks.add("trial spans cover the round wall time",
                   campT.roundS > 0 &&
                       campT.trialSpanS >= kCoverageFloor * campT.roundS);

        // Campaign-layer times come from the traced rounds; counts from
        // the traced digest pass, which repeats exactly.
        const obs::Telemetry &ct = trace.campaign;
        const Stage trial = stage(ct, "eval.trial");
        const Stage tick = stage(ct, "sampler.tick");
        const Stage ioctl = stage(ct, "kgsl.ioctl");
        const double perTrial = 1.0 / std::max(trial.count, 1.0);
        const double simSelfNs = (trial.sum - tick.sum) * perTrial;
        const double digestTrials = double(digestT.trials.size());
        const double events = double(digestT.events) / digestTrials;
        const double frames = double(digestT.frames) / digestTrials;
        std::vector<double> trains = setup.trainS;
        trains.insert(trains.end(), campT.trainS.begin(),
                      campT.trainS.end());
        metrics.add("eval.train_ms", median(trains) * 1e3, "ms");
        metrics.add("eval.trial_ms_p50", trial.p50 * 1e-6, "ms");
        metrics.add("android.sim_self_ms_per_trial", simSelfNs * 1e-6,
                    "ms");
        metrics.add("sim.host_ns_per_event", ratio(simSelfNs, events),
                    "ns");
        metrics.add("sim.sim_s_per_host_s",
                    ratio(digest.simSeconds, digest.hostSeconds), "s/s");
        metrics.add("util.events_per_trial", events, "count");
        metrics.add("gpu.frames_per_trial", frames, "count");
        metrics.add("kgsl.ioctls_per_trial",
                    counter(digestTel, "kgsl.ioctl.calls") / digestTrials,
                    "count");
        metrics.add("kgsl.ioctl_ns_p50", ioctl.p50, "ns");
        metrics.add("kgsl.ioctl_ms_per_trial", ioctl.sum * perTrial * 1e-6,
                    "ms");
        metrics.add("attack.tick_self_ms_per_trial",
                    (tick.sum - ioctl.sum) * perTrial * 1e-6, "ms");
        metrics.add("attack.readings_per_trial",
                    counter(digestTel, "pipeline.readings_in") /
                        digestTrials,
                    "count");
        metrics.add("attack.changes_per_trial",
                    counter(digestTel, "infer.changes_in") / digestTrials,
                    "count");
        metrics.add("attack.accept_ratio",
                    ratio(counter(digestTel, "infer.accepted"),
                          counter(digestTel, "infer.changes_in")),
                    "fraction");
        metrics.add("gfx.scene_build_us_per_frame",
                    probe.sceneBuildUsPerFrame, "us");
        metrics.add("gpu.render_us_per_frame", probe.renderUsPerFrame,
                    "us");
        metrics.add("gpu.render_ns_per_px", probe.renderNsPerPx, "ns");
        metrics.add("gpu.prims_per_frame", probe.primsPerFrame, "count");
        metrics.add("gpu.render_share_est",
                    ratio(frames * probe.renderUsPerFrame * 1e3,
                          trial.sum * perTrial),
                    "fraction");
        metrics.add("trace.decode_ns_per_reading",
                    probe.decodeNsPerReading, "ns");
        metrics.add("trace.crc_ns_per_byte", probe.crcNsPerByte, "ns");
        metrics.add("trace.bytes_per_reading", probe.bytesPerReading,
                    "B");
        metrics.add("trace.encode_ns_per_reading",
                    probe.encodeNsPerReading, "ns");
        metrics.add("attack.feed_ns_per_reading", probe.feedNsPerReading,
                    "ns");
        metrics.add("attack.classify_ns_p50",
                    stage(trace.replay, "attack.classify").p50, "ns");
        metrics.add("attack.changes_per_kreading",
                    probe.changesPerKReading, "count");
        const double ingested =
            double(std::max<std::uint64_t>(rescT.ingestReadings, 1));
        metrics.add("stream.offer_ns_per_reading",
                    rescT.offerNs / ingested, "ns");
        metrics.add("stream.pump_ns_per_reading", rescT.pumpNs / ingested,
                    "ns");
        metrics.add("stream.sessions_held", double(rescT.sessionsHeld),
                    "count");
        metrics.add("stream.memory_mb", rescT.sessionMemoryMb, "MB");
        metrics.add("stream.evictions", double(rescT.evictions), "count");
        metrics.add("stream.block_drains", double(rescT.blockDrains),
                    "count");
        metrics.add("stream.template_updates",
                    double(rescT.templateUpdates), "count");
        // Traced vs untraced throughput of the workload's main loop:
        // campaign rounds, or replay for the corpus workload.
        const bool rounds = w.accRounds > 0;
        const double plainRate = median(rounds ? camp.roundRates
                                               : resc.replayRates);
        const double tracedRate = median(rounds ? campT.roundRates
                                                : rescT.replayRates);
        metrics.add("trace_overhead_frac",
                    1.0 - ratio(tracedRate, plainRate), "fraction");
        metrics.add("host.kernel_calls_per_s",
                    fastDecile(untraced.hostCallsPerS, true), "1/s");

        const std::string spansPath = args.workDir + "/spans-" + w.name +
                                      "-" + std::to_string(args.seed) +
                                      ".json";
        obs::Telemetry::writeFile(spansPath, trace.spans.json(meta));
        std::printf("# spans: %zu written to %s (%llu dropped)\n",
                    trace.spans.size(), spansPath.c_str(),
                    (unsigned long long)trace.spans.dropped());
    }

    // Human-readable report: every metric, plus the figures that are
    // printed but not bounded (text accuracy, failed fraction).
    std::printf("# sim_digest %016llx\n",
                (unsigned long long)simDigest(digest, camp, setup));
    std::printf("# text_acc %.6f fraction (%zu trials)\n",
                acc.textAccuracy(), acc.trials());
    std::printf("# failed_frac %.6f fraction (%llu of %llu)\n",
                failures.frac(), (unsigned long long)failures.failed,
                (unsigned long long)failures.attempted);
    std::printf("# ingest lag: %zu samples per pass, %zu passes\n",
                resc.lagSamplesPerPass, resc.lagP99Ms.size());
    for (const Metric &m : metrics.all())
        std::printf("# %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto &[name, pass] : checks.all)
        std::printf("# check %-4s %s\n", pass ? "ok" : "FAIL",
                    name.c_str());

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::printf("%s\n", resultJson(checks.ok(), failures, metrics).c_str());
    return checks.ok() ? 0 : 1;
}
