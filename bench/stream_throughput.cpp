/**
 * @file
 * Streaming ingest service benchmark (src/stream/). Three segments,
 * reported as JSON on stdout and mirrored to BENCH_stream.json:
 *
 *  - capacity: fan one recorded reading stream out to >= 1000
 *    concurrent sessions under the default memory budget; reports
 *    sessions held, accounted memory, and ingest throughput
 *    (readings/s through the full inference pipeline).
 *  - shed: the same stream against a tiny ring under the shed-oldest
 *    policy with a deliberately lazy pump; reports the shed rate and
 *    re-checks the audit funnel identity over the aggregate.
 *  - drift: accuracy-over-time under rendering-cost drift. Every
 *    non-idle reading delta gains an additive offset that ramps from
 *    0 to drift_max_cth x C_th in the model's own scaled-distance
 *    units (idle readings stay idle, so change detection is
 *    unaffected — only classification distances grow). The same
 *    drifted stream is ingested twice — once with online template
 *    adaptation, once with the model frozen — and per-window
 *    key-press accuracy gives the two curves. Adaptation tracks the
 *    ramp; the frozen model decays to zero once the drift passes
 *    C_th.
 *
 *   {"bench": "stream_throughput",
 *    "capacity": {"sessions": ..., "sessions_held": ...,
 *                 "memory_bytes": ..., "memory_budget_bytes": ...,
 *                 "readings": ..., "seconds": ...,
 *                 "readings_per_sec": ...},
 *    "shed": {"offered": ..., "shed": ..., "shed_rate": ...,
 *             "funnel_ok": true},
 *    "drift": {"trials": ..., "window": ..., "drift_max_cth": ...,
 *              "adaptive": {"curve": [...], "updates": ...,
 *                           "mean_late_acc": ...},
 *              "frozen": {"curve": [...], "mean_late_acc": ...},
 *              "adaptation_wins": true}}
 *
 * The bench exits non-zero unless the capacity segment holds at least
 * 100 sessions within the memory budget, the shed funnel reconciles,
 * and adaptation beats the frozen model, so ctest and CI run it as a
 * gate. Its timings are reported, not gated.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "attack/model_store.h"
#include "bench_util.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "exec/thread_pool.h"
#include "stream/ingest_service.h"
#include "trace/trace_reader.h"
#include "util/logging.h"

using namespace gpusc;

namespace {

constexpr std::uint64_t kSeed = 20260808;

/** Fewest sessions the capacity segment must hold, in either mode. */
constexpr std::size_t kMinSessionsHeld = 100;

/** One ground-truth credential window of the recorded stream. */
struct TrialWindow
{
    std::string truth;
    SimTime begin;
    SimTime end;
};

struct RecordedStream
{
    std::vector<attack::Reading> readings;
    std::vector<TrialWindow> trials;
};

/**
 * Record @p trials credential trials once and decode the reading
 * stream + trial boundaries. Lowercase-only credentials keep the
 * label space small, so under drift every template sees updates at a
 * steady cadence. The model is trained into the global store as a
 * side effect; later segments reuse it.
 */
RecordedStream
recordStream(int trials, const std::string &path)
{
    eval::ExperimentConfig cfg;
    cfg.seed = kSeed;
    cfg.recordTracePath = path;
    cfg.charset = workload::CharsetMix::lowerOnly();
    {
        eval::ExperimentRunner runner(cfg,
                                      attack::ModelStore::global());
        runner.runTrials(trials, 8, 12);
        if (runner.finishRecording() != trace::TraceError::None)
            fatal("stream_throughput: trace recording failed");
    }

    RecordedStream out;
    trace::TraceReader reader;
    if (reader.open(path) != trace::TraceError::None)
        fatal("stream_throughput: cannot reopen %s", path.c_str());
    trace::TraceRecord rec;
    bool eof = false;
    TrialWindow open;
    bool inTrial = false;
    while (reader.next(rec, eof) == trace::TraceError::None && !eof) {
        switch (rec.kind) {
          case trace::RecordKind::Reading:
            out.readings.push_back(rec.reading);
            break;
          case trace::RecordKind::TrialBegin:
            open = TrialWindow{rec.text, rec.time, rec.time};
            inTrial = true;
            break;
          case trace::RecordKind::TrialEnd:
            if (inTrial) {
                open.end = rec.time;
                out.trials.push_back(open);
                inTrial = false;
            }
            break;
          default:
            break;
        }
    }
    return out;
}

/**
 * Add a rendering-cost drift to the stream: every reading whose
 * delta is non-zero gains an additive per-counter offset that ramps
 * linearly from 0 to @p maxDistance in @p model's scaled-distance
 * units (spread evenly across the counters the model weighs).
 * Idle readings are untouched, so the change detector sees the same
 * change sequence — only classification distances drift. Offsets are
 * rounded per counter; with the trained scales (~1e-2) the rounding
 * error stays well under 0.1 x C_th.
 */
std::vector<attack::Reading>
applyDrift(const std::vector<attack::Reading> &in,
           const attack::SignatureModel &model, double maxDistance)
{
    const auto &scale = model.scale();
    std::size_t active = 0;
    for (double s : scale)
        active += s > 0.0;
    if (!active)
        fatal("stream_throughput: model has no scaled counters");

    std::vector<attack::Reading> out;
    out.reserve(in.size());
    gpu::CounterTotals acc{};
    const std::size_t n = in.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double ramp =
            n > 1 ? double(i) / double(n - 1) : 0.0;
        // Offset with scaled-space norm ramp*maxDistance, split
        // evenly over the active counters.
        const double perDim =
            ramp * maxDistance / std::sqrt(double(active));
        attack::Reading r = in[i];
        bool idle = true;
        for (std::size_t c = 0; c < r.totals.size(); ++c) {
            const std::uint64_t prev = i ? in[i - 1].totals[c] : 0;
            if (r.totals[c] != prev)
                idle = false;
        }
        for (std::size_t c = 0; c < r.totals.size(); ++c) {
            const std::uint64_t prev = i ? in[i - 1].totals[c] : 0;
            std::uint64_t delta = r.totals[c] - prev;
            if (!idle && scale[c] > 0.0)
                delta += std::uint64_t(
                    std::llround(perDim / scale[c]));
            acc[c] += delta;
            r.totals[c] = acc[c];
        }
        out.push_back(r);
    }
    return out;
}

/**
 * Ingest @p readings into one session and score each trial window's
 * per-key accuracy into @p window-sized buckets.
 * @return per-window key-press accuracy; template updates applied
 * via @p updatesOut.
 */
std::vector<double>
driftCurve(const std::vector<attack::Reading> &readings,
           const std::vector<TrialWindow> &trials, bool adapt,
           std::size_t window, std::uint64_t *updatesOut)
{
    stream::IngestService::Params params;
    params.backpressure = stream::IngestService::Backpressure::Block;
    params.sessions.session.adaptation = adapt;
    // Track the ramp aggressively: snap templates onto each accepted
    // observation, gated only for matches already near the threshold.
    params.sessions.session.adaptationParams.blend = 1.0;
    params.sessions.session.adaptationParams.confidenceMargin = 0.95;
    // The echo-channel correction heuristic fits a fixed per-length
    // line and cannot adapt; disable it for both curves so the
    // comparison isolates template adaptation.
    params.sessions.session.eavesdropper.correctionTracking = false;

    const attack::SignatureModel &base =
        attack::ModelStore::global().getOrTrain(
            android::DeviceConfig{}, attack::OfflineTrainer{});
    stream::IngestService svc(base, params);

    std::vector<eval::AccuracyStats> buckets(
        (trials.size() + window - 1) / window);
    std::size_t next = 0; // next reading to offer
    for (std::size_t t = 0; t < trials.size(); ++t) {
        while (next < readings.size() &&
               readings[next].time <= trials[t].end) {
            svc.offer(0, readings[next]);
            ++next;
        }
        svc.pump();
        const stream::Session *s = svc.sessions().find(0);
        const std::string inferred =
            s->eavesdropper().inferredTextBetween(trials[t].begin,
                                                  trials[t].end);
        buckets[t / window].add(trials[t].truth, inferred);
    }
    if (updatesOut) {
        const stream::Session *s = svc.sessions().find(0);
        *updatesOut =
            s->updater() ? s->updater()->updatesApplied() : 0;
    }
    std::vector<double> curve;
    for (const eval::AccuracyStats &b : buckets)
        curve.push_back(b.charAccuracy());
    return curve;
}

double
meanLateAccuracy(const std::vector<double> &curve)
{
    const std::size_t from = curve.size() / 2;
    double sum = 0.0;
    for (std::size_t i = from; i < curve.size(); ++i)
        sum += curve[i];
    return curve.size() > from ? sum / double(curve.size() - from)
                               : 0.0;
}

std::string
curveJson(const std::vector<double> &curve)
{
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < curve.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.4f", i ? ", " : "",
                      curve[i]);
        out += buf;
    }
    return out + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    // Quick mode (CI): fewer trials, smaller fleet. Full mode covers
    // the >=1000-session acceptance bar.
    const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
    const int driftTrials = quick ? 24 : 48;
    const std::size_t fleet = quick ? 128 : 1200;
    const std::size_t window = quick ? 4 : 6;
    /** Total drift, in C_th units: 3x the acceptance threshold is
     *  far beyond what a frozen model survives. */
    const double driftMaxCth = 3.0;

    const std::string tracePath = "stream_throughput_tmp.gpct";
    const RecordedStream stream =
        recordStream(driftTrials, tracePath);
    std::remove(tracePath.c_str());
    if (stream.readings.empty() || stream.trials.empty())
        fatal("stream_throughput: empty recorded stream");

    const attack::SignatureModel &base =
        attack::ModelStore::global().getOrTrain(
            android::DeviceConfig{}, attack::OfflineTrainer{});
    char buf[512];
    std::string json = "{\"bench\": \"stream_throughput\", ";
    bool capacityOk = false;
    bool funnelOk = false;
    bool adaptationWins = false;

    // --- capacity: fan out to `fleet` concurrent sessions. ---
    {
        stream::IngestService::Params params;
        params.backpressure =
            stream::IngestService::Backpressure::Block;
        // Capacity measures pipeline traffic, not adaptation.
        params.sessions.session.adaptation = false;
        stream::IngestService svc(base, params);
        exec::ThreadPool pool(8);

        // Bound per-session traffic so the segment measures breadth
        // (many sessions), not depth.
        const std::size_t perSession =
            std::min<std::size_t>(stream.readings.size(), 512);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < perSession; ++i) {
            for (stream::SessionId sid = 0; sid < fleet; ++sid)
                svc.offer(sid, stream.readings[i]);
            if (i % 64 == 63)
                svc.pump(pool);
        }
        svc.pump(pool);
        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        capacityOk = svc.sessions().size() >= kMinSessionsHeld &&
                     svc.sessions().memoryUseBytes() <=
                         svc.sessions().params().memoryBudgetBytes;
        std::snprintf(
            buf, sizeof buf,
            "\"capacity\": {\"sessions\": %zu, "
            "\"sessions_held\": %zu, \"evicted\": %llu, "
            "\"memory_bytes\": %zu, \"memory_budget_bytes\": %zu, "
            "\"readings\": %llu, \"seconds\": %.3f, "
            "\"readings_per_sec\": %.0f}, ",
            fleet, svc.sessions().size(),
            (unsigned long long)svc.sessions().sessionsEvicted(),
            svc.sessions().memoryUseBytes(),
            svc.sessions().params().memoryBudgetBytes,
            (unsigned long long)svc.readingsOffered(), secs,
            secs > 0 ? double(svc.readingsOffered()) / secs : 0.0);
        json += buf;
    }

    // --- shed: tiny ring, lazy pump, shed-oldest. ---
    {
        stream::IngestService::Params params;
        params.backpressure =
            stream::IngestService::Backpressure::ShedOldest;
        params.sessions.session.ringCapacity = 32;
        params.sessions.session.adaptation = false;
        stream::IngestService svc(base, params);
        std::size_t sincePump = 0;
        for (const attack::Reading &r : stream.readings) {
            svc.offer(0, r);
            if (++sincePump == 256) { // ring is 32: forced sheds
                svc.pump();
                sincePump = 0;
            }
        }
        svc.pump();
        obs::Telemetry agg;
        svc.aggregateTelemetry(agg);
        const std::uint64_t parts =
            agg.audit.count(obs::Decision::AcceptedKey) +
            agg.audit.count(obs::Decision::SplitRepaired) +
            agg.audit.count(obs::Decision::DuplicationDrop) +
            agg.audit.count(obs::Decision::NoiseRejected) +
            agg.audit.count(obs::Decision::SuppressedAppSwitch);
        funnelOk =
            agg.audit.changesAudited() == parts &&
            agg.audit.count(obs::Decision::ShedOldestDrop) ==
                svc.readingsShedOldest();
        std::snprintf(
            buf, sizeof buf,
            "\"shed\": {\"offered\": %llu, \"shed\": %llu, "
            "\"shed_rate\": %.4f, \"funnel_ok\": %s}, ",
            (unsigned long long)svc.readingsOffered(),
            (unsigned long long)svc.readingsShedOldest(),
            svc.readingsOffered()
                ? double(svc.readingsShedOldest()) /
                      double(svc.readingsOffered())
                : 0.0,
            funnelOk ? "true" : "false");
        json += buf;
    }

    // --- drift: adaptation vs frozen model on the same stream. ---
    {
        const std::vector<attack::Reading> drifted = applyDrift(
            stream.readings, base, driftMaxCth * base.threshold());
        std::uint64_t updates = 0;
        const std::vector<double> adaptive = driftCurve(
            drifted, stream.trials, true, window, &updates);
        const std::vector<double> frozen = driftCurve(
            drifted, stream.trials, false, window, nullptr);
        const double lateAdaptive = meanLateAccuracy(adaptive);
        const double lateFrozen = meanLateAccuracy(frozen);
        adaptationWins = lateAdaptive > lateFrozen;
        std::snprintf(
            buf, sizeof buf,
            "\"drift\": {\"trials\": %zu, \"window\": %zu, "
            "\"drift_max_cth\": %.2f, "
            "\"adaptive\": {\"curve\": %s, \"updates\": %llu, "
            "\"mean_late_acc\": %.4f}, ",
            stream.trials.size(), window, driftMaxCth,
            curveJson(adaptive).c_str(), (unsigned long long)updates,
            lateAdaptive);
        json += buf;
        std::snprintf(
            buf, sizeof buf,
            "\"frozen\": {\"curve\": %s, \"mean_late_acc\": %.4f}, "
            "\"adaptation_wins\": %s}}",
            curveJson(frozen).c_str(), lateFrozen,
            adaptationWins ? "true" : "false");
        json += buf;
    }

    std::printf("%s\n", json.c_str());
    bench::writeJsonMirror("BENCH_stream.json", json);

    if (!capacityOk)
        warn("stream_throughput: fewer than %zu sessions held, or "
             "over the memory budget",
             kMinSessionsHeld);
    if (!funnelOk)
        warn("stream_throughput: shed funnel does not reconcile");
    if (!adaptationWins)
        warn("stream_throughput: adaptation does not beat the frozen "
             "model");
    return capacityOk && funnelOk && adaptationWins ? 0 : 1;
}
