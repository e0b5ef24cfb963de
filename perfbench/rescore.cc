/**
 * @file
 * The corpus phase: replay, export and streaming-ingest passes over
 * the recorded traces, in closed-loop cycles.
 */

#include <algorithm>
#include <tuple>

#include "bench.h"
#include "exec/thread_pool.h"
#include "stream/ingest_service.h"
#include "trace/trace_reader.h"
#include "trace/trace_replayer.h"
#include "trace/trace_writer.h"

namespace perfbench {

namespace {

using Kids = std::vector<std::tuple<std::int64_t, std::int64_t,
                                    std::int64_t>>;

/** Record a pass span and its per-unit children. */
void
addTree(Trace *trace, const char *name, std::int64_t t0,
        std::int64_t t1, std::int64_t unit, const char *childName,
        const Kids &kids)
{
    if (!trace)
        return;
    const int parent = trace->spans.add(name, t0, t1, -1, unit);
    for (const auto &[s, e, id] : kids)
        trace->spans.add(childName, s, e, parent, id);
}

bool
sameReadings(const std::vector<attack::Reading> &a,
             const std::vector<attack::Reading> &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const attack::Reading &x,
                         const attack::Reading &y) {
                          return x.time == y.time && x.totals == y.totals;
                      });
}

} // namespace

void
CorpusPasses::replay()
{
    attack::Eavesdropper::Params params;
    if (trace_)
        params.telemetry = &trace_->replay;
    const bool check = replays_++ == 0;
    std::uint64_t readings = 0;
    std::int64_t busy = 0;
    Kids kids;
    const std::int64_t p0 = obs::hostNowNs();
    for (std::size_t i = 0; i < setup_.corpus.size(); ++i) {
        const CorpusFile &file = setup_.corpus[i];
        trace::TraceReplayer replayer(setup_.store, params);
        const std::int64_t t0 = obs::hostNowNs();
        const trace::TraceError err = replayer.replayFile(file.path);
        const std::int64_t t1 = obs::hostNowNs();
        kids.emplace_back(t0, t1, std::int64_t(i));
        ++out_.fileOps;
        if (err != trace::TraceError::None) {
            ++out_.fileFailures;
            continue;
        }
        readings += replayer.readingsReplayed();
        busy += t1 - t0;
        if (!check)
            continue;
        const auto &trials = replayer.trials();
        if (trials.size() != file.live.size())
            out_.replayMatchesLive = false;
        for (std::size_t t = 0;
             t < std::min(trials.size(), file.live.size()); ++t) {
            out_.replayStats.add(trials[t].truth, trials[t].inferred);
            if (trials[t].truth != file.live[t].truth ||
                trials[t].inferred != file.live[t].inferred)
                out_.replayMatchesLive = false;
        }
    }
    addTree(trace_, "replay.pass", p0, obs::hostNowNs(), replays_ - 1,
            "replay.file", kids);
    if (readings && busy > 0)
        out_.replayRates.push_back(double(readings) * 1e9 / double(busy));
}

void
CorpusPasses::exportAll()
{
    const bool check = exports_++ == 0;
    std::uint64_t readings = 0;
    std::int64_t busy = 0;
    Kids kids;
    const std::int64_t p0 = obs::hostNowNs();
    for (std::size_t i = 0; i < setup_.corpus.size(); ++i) {
        const CorpusFile &file = setup_.corpus[i];
        const std::string path =
            workDir_ + "/export-" + std::to_string(i) +
            trace::kTraceExtension;
        const std::int64_t t0 = obs::hostNowNs();
        trace::TraceReader reader;
        trace::TraceWriter writer;
        trace::TraceError err = reader.open(file.path);
        if (err == trace::TraceError::None)
            err = writer.open(path, reader.header());
        std::uint64_t n = 0;
        trace::TraceRecord rec;
        bool eof = false;
        while (err == trace::TraceError::None) {
            err = reader.next(rec, eof);
            if (err != trace::TraceError::None || eof)
                break;
            n += rec.kind == trace::RecordKind::Reading;
            err = writer.write(rec);
        }
        const trace::TraceError closeErr = writer.close();
        if (err == trace::TraceError::None)
            err = closeErr;
        const std::int64_t t1 = obs::hostNowNs();
        kids.emplace_back(t0, t1, std::int64_t(i));
        ++out_.fileOps;
        if (err != trace::TraceError::None) {
            ++out_.fileFailures;
            continue;
        }
        readings += n;
        busy += t1 - t0;
        if (check) {
            std::vector<attack::Reading> decoded;
            trace::TraceReader back;
            bool end = false;
            if (back.open(path) != trace::TraceError::None)
                out_.exportRoundTrips = false;
            while (back.isOpen() &&
                   back.next(rec, end) == trace::TraceError::None &&
                   !end)
                if (rec.kind == trace::RecordKind::Reading)
                    decoded.push_back(rec.reading);
            if (!sameReadings(decoded, file.readings))
                out_.exportRoundTrips = false;
        }
    }
    addTree(trace_, "export.pass", p0, obs::hostNowNs(), exports_ - 1,
            "export.file", kids);
    if (readings && busy > 0)
        out_.exportRates.push_back(double(readings) * 1e9 / double(busy));
}

void
CorpusPasses::ingest(exec::ThreadPool &pool)
{
    const bool first = ingests_++ == 0;
    stream::IngestService::Params params;
    params.backpressure = stream::IngestService::Backpressure::Block;
    params.sessions.session.adaptation = true;
    const attack::SignatureModel &base =
        setup_.store.all().begin()->second;
    stream::IngestService svc(base, params);

    const std::size_t sessions = w_.ingestSessions;
    const std::size_t files = setup_.corpus.size();
    std::vector<std::size_t> cursor(sessions, 0);
    std::vector<std::int64_t> chunkStarts;
    chunkStarts.reserve(sessions);
    std::vector<double> lagMs;
    std::uint64_t readings = 0;
    Kids kids;
    const std::int64_t p0 = obs::hostNowNs();
    for (std::int64_t batch = 0;; ++batch) {
        chunkStarts.clear();
        const std::int64_t b0 = obs::hostNowNs();
        for (std::size_t s = 0; s < sessions; ++s) {
            const auto &src = setup_.corpus[s % files].readings;
            const std::size_t from = cursor[s];
            const std::size_t to =
                std::min(src.size(), from + kIngestChunk);
            if (from == to)
                continue;
            chunkStarts.push_back(obs::hostNowNs());
            for (std::size_t k = from; k < to; ++k)
                svc.offer(s, src[k]);
            readings += to - from;
            cursor[s] = to;
        }
        if (chunkStarts.empty())
            break;
        const std::int64_t b1 = obs::hostNowNs();
        svc.pump(pool);
        const std::int64_t b2 = obs::hostNowNs();
        for (const std::int64_t c : chunkStarts)
            lagMs.push_back(double(b2 - c) * 1e-6);
        if (trace_) {
            out_.offerNs += double(b1 - b0);
            out_.pumpNs += double(b2 - b1);
            kids.emplace_back(b0, b1, batch);
            kids.emplace_back(b1, b2, batch);
        }
    }
    const std::int64_t p1 = obs::hostNowNs();
    if (trace_) {
        // Alternating children: stream.offer then stream.pump.
        const int parent = trace_->spans.add("ingest.pass", p0, p1, -1,
                                            ingests_ - 1);
        for (std::size_t k = 0; k < kids.size(); ++k) {
            const auto &[s, e, id] = kids[k];
            trace_->spans.add(k % 2 ? "stream.pump" : "stream.offer", s,
                             e, parent, id);
        }
        out_.ingestReadings += readings;
    }
    out_.ingestRates.push_back(double(readings) * 1e9 / double(p1 - p0));
    out_.lagSamplesPerPass = lagMs.size();
    if (const auto p50 = tailPercentile(lagMs, 0.50))
        out_.lagP50Ms.push_back(*p50);
    if (const auto p99 = tailPercentile(lagMs, 0.99))
        out_.lagP99Ms.push_back(*p99);

    // Block must lose nothing: every offered reading was drained.
    std::uint64_t drained = 0;
    for (const auto &[id, session] : svc.sessions().all())
        drained += session->readingsDrained();
    const std::uint64_t lost =
        svc.readingsShedOldest() + svc.readingsShedNewest() +
        (svc.readingsOffered() - std::min(svc.readingsOffered(), drained));
    out_.readingsOffered += svc.readingsOffered();
    out_.readingsLost += lost;
    if (lost || svc.readingsOffered() != readings)
        out_.ingestConsistent = false;
    if (!first)
        return;

    out_.sessionsHeld = svc.sessions().size();
    out_.sessionMemoryMb = double(svc.sessions().memoryUseBytes()) / 1e6;
    out_.evictions = svc.sessions().sessionsEvicted();
    out_.blockDrains = svc.blockDrains();
    for (const auto &[id, session] : svc.sessions().all())
        if (session->updater())
            out_.templateUpdates += session->updater()->updatesApplied();

    // Funnel identity over the aggregate decision trail.
    obs::Telemetry agg;
    svc.aggregateTelemetry(agg);
    const std::uint64_t parts =
        agg.audit.count(obs::Decision::AcceptedKey) +
        agg.audit.count(obs::Decision::SplitRepaired) +
        agg.audit.count(obs::Decision::DuplicationDrop) +
        agg.audit.count(obs::Decision::NoiseRejected) +
        agg.audit.count(obs::Decision::SuppressedAppSwitch);
    if (agg.audit.changesAudited() != parts || parts == 0)
        out_.ingestConsistent = false;

    // Every session fed the same file infers the same text.
    std::vector<std::vector<std::string>> reference(files);
    for (std::size_t s = 0; s < sessions; ++s) {
        const stream::Session *session = svc.sessions().find(s);
        if (!session) {
            out_.ingestConsistent = false;
            continue;
        }
        const CorpusFile &file = setup_.corpus[s % files];
        std::vector<std::string> texts;
        for (const CorpusFile::Window &win : file.windows)
            texts.push_back(session->eavesdropper().inferredTextBetween(
                win.begin, win.end));
        if (s < files)
            reference[s] = std::move(texts);
        else if (texts != reference[s % files])
            out_.ingestConsistent = false;
    }
}

} // namespace perfbench
