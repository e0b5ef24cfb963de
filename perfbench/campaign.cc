/**
 * @file
 * Set-up (cold training + corpus recording), the closed-loop campaign
 * phase and the digest pass.
 */

#include <cstdio>

#include "attack/trainer.h"
#include "bench.h"
#include "exec/parallel_runner.h"
#include "trace/trace_reader.h"
#include "util/rng.h"
#include "workload/credential.h"

namespace perfbench {

namespace {

/** forkSeed stream of corpus file f (round r uses index r). */
constexpr std::uint64_t kCorpusStream = 1ULL << 62;

const std::vector<Workload> &
workloads()
{
    // Sized so each run fits its --seconds on a 4-core host while the
    // fixed accuracy rounds and cold trainings still repeat exactly.
    static const std::vector<Workload> table = {
        {"campaign", "chase", 2, 2, 60, 16, 0.8, 256},
        {"campaign_anim", "pnc", 2, 2, 14, 2, 0.8, 256},
        {"rescore", "chase", 8, 6, 0, 12, 0.15, 384},
    };
    return table;
}

double
nowS()
{
    return double(obs::hostNowNs()) * 1e-9;
}

/** Decode one recorded file: readings + ground-truth windows. */
bool
decodeCorpusFile(CorpusFile &f)
{
    trace::TraceReader reader;
    if (reader.open(f.path) != trace::TraceError::None)
        return false;
    trace::TraceRecord rec;
    bool eof = false;
    CorpusFile::Window open{};
    bool inTrial = false;
    for (;;) {
        if (reader.next(rec, eof) != trace::TraceError::None)
            return false;
        if (eof)
            break;
        switch (rec.kind) {
          case trace::RecordKind::Reading:
            f.readings.push_back(rec.reading);
            break;
          case trace::RecordKind::TrialBegin:
            open = {rec.text, rec.time, rec.time};
            inTrial = true;
            break;
          case trace::RecordKind::TrialEnd:
            if (inTrial) {
                open.end = rec.time;
                f.windows.push_back(open);
                inTrial = false;
            }
            break;
          default:
            break;
        }
    }
    std::FILE *fp = std::fopen(f.path.c_str(), "rb");
    if (!fp)
        return false;
    std::fseek(fp, 0, SEEK_END);
    f.bytes = std::uint64_t(std::ftell(fp));
    std::fclose(fp);
    return true;
}

/** Credentials of campaign round @p roundSeed, as ParallelRunner
 *  draws them (trial i keyed on forkSeed(roundSeed, i)). */
std::vector<std::string>
roundCredentials(std::uint64_t roundSeed,
                 const workload::CharsetMix &charset)
{
    std::vector<std::string> creds(kRoundTrials);
    for (std::size_t i = 0; i < creds.size(); ++i) {
        Rng lenRng(forkSeed(roundSeed, i));
        const auto len = std::size_t(lenRng.uniformInt(
            std::int64_t(kMinLen), std::int64_t(kMaxLen)));
        workload::CredentialGenerator gen(
            forkSeed(roundSeed, i) ^ 0xc0ffee, charset);
        creds[i] = gen.next(len);
    }
    return creds;
}

eval::ExperimentConfig
roundConfig(const Workload &w, std::uint64_t seed, std::uint64_t round)
{
    eval::ExperimentConfig cfg;
    cfg.device = deviceConfig(w);
    cfg.seed = forkSeed(seed, round);
    return cfg;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string out;
    for (const Workload &w : workloads())
        out += (out.empty() ? "" : ", ") + w.name;
    return out;
}

android::DeviceConfig
deviceConfig(const Workload &w)
{
    android::DeviceConfig cfg;
    cfg.app = w.app;
    return cfg;
}

Setup
runSetup(const Workload &w, std::uint64_t seed,
         const std::string &workDir)
{
    Setup out;
    const android::DeviceConfig dev = deviceConfig(w);
    for (int rep = 0; rep < kSetups; ++rep) {
        const double t0 = nowS();
        attack::ModelStore store;
        attack::SignatureModel model = attack::OfflineTrainer{}.train(dev);
        out.trainS.push_back(nowS() - t0);
        std::vector<std::uint8_t> bytes = model.serialize();
        if (rep == 0)
            out.modelBytes = std::move(bytes);
        else if (bytes != out.modelBytes)
            out.trainingsIdentical = false;
        store.put(std::move(model));

        std::vector<CorpusFile> corpus(std::size_t(w.corpusFiles));
        for (std::size_t f = 0; f < corpus.size(); ++f) {
            CorpusFile &file = corpus[f];
            file.path = workDir + "/corpus-" + std::to_string(f) +
                        trace::kTraceExtension;
            eval::ExperimentConfig cfg;
            cfg.device = dev;
            cfg.seed = forkSeed(seed, kCorpusStream | f);
            cfg.recordTracePath = file.path;
            eval::ExperimentRunner runner(cfg, store);
            runner.runTrials(w.trialsPerFile, kMinLen, kMaxLen,
                             &file.live);
            if (runner.finishRecording() != trace::TraceError::None)
                out.recordingOk = false;
        }
        for (CorpusFile &file : corpus)
            if (!decodeCorpusFile(file) ||
                file.windows.size() != file.live.size())
                out.recordingOk = false;
        out.setupS.push_back(nowS() - t0);
        out.store = std::move(store);
        out.corpus = std::move(corpus);

        // Host speed while setting up, for scaling setup_s.
        const double k0 = nowS();
        out.hostChecksum = hostKernel();
        out.hostCallsPerS.push_back(1.0 / (nowS() - k0));
    }
    return out;
}

void
Campaign::train()
{
    const std::int64_t t0 = obs::hostNowNs();
    const attack::SignatureModel model =
        attack::OfflineTrainer{}.train(deviceConfig(w_));
    const std::int64_t t1 = obs::hostNowNs();
    out_.trainS.push_back(double(t1 - t0) * 1e-9);
    if (model.serialize() != setup_.modelBytes)
        out_.trainingsIdentical = false;
    if (trace_)
        trace_->spans.add("eval.train", t0, t1, -1,
                          std::int64_t(out_.trainS.size()) - 1);
}

void
Campaign::round()
{
    const int r = rounds_++;
    eval::ExperimentConfig cfg = roundConfig(w_, seed_, std::uint64_t(r));
    if (trace_)
        cfg.telemetry = &trace_->campaign;
    exec::ParallelRunner runner(cfg, setup_.store, 1);
    std::vector<std::int64_t> trialEnds;
    if (trace_)
        runner.setTrialListener(
            [&trialEnds](const eval::TrialResult &, SimTime) {
                trialEnds.push_back(obs::hostNowNs());
            });
    const std::int64_t t0 = obs::hostNowNs();
    exec::ParallelResult res =
        runner.runTrials(kRoundTrials, kMinLen, kMaxLen);
    const std::int64_t t1 = obs::hostNowNs();

    const double secs = double(t1 - t0) * 1e-9;
    out_.roundRates.push_back(double(res.trials.size()) / secs);
    out_.roundS += secs;
    out_.trials += res.trials.size();
    if (res.health.missedReads > 0 ||
        res.trials.size() != std::size_t(kRoundTrials))
        out_.failedTrials += kRoundTrials;
    if (r < w_.accRounds)
        out_.accTrials.insert(out_.accTrials.end(), res.trials.begin(),
                              res.trials.end());
    if (!trace_)
        return;
    // A trial span runs from the previous trial's end (or the round
    // start: device boot included) to its own end.
    const int parent = trace_->spans.add("campaign.round", t0, t1, -1, r);
    std::int64_t from = t0;
    for (std::size_t i = 0; i < trialEnds.size(); ++i) {
        trace_->spans.add("eval.trial", from, trialEnds[i], parent,
                          std::int64_t(r) * kRoundTrials +
                              std::int64_t(i));
        out_.trialSpanS += double(trialEnds[i] - from) * 1e-9;
        from = trialEnds[i];
    }
}

SimDigest
runDigestPass(const Workload &w, std::uint64_t seed, Setup &setup,
              obs::Telemetry *tel)
{
    // Round 0 exactly as ParallelRunner runs it inline: one shard,
    // shard seed forkSeed(roundSeed, kShardStream | 0).
    eval::ExperimentConfig cfg = roundConfig(w, seed, 0);
    const std::vector<std::string> creds =
        roundCredentials(cfg.seed, cfg.charset);
    cfg.seed = forkSeed(cfg.seed, exec::ParallelRunner::kShardStream);
    cfg.telemetry = tel;

    SimDigest out;
    const double t0 = nowS();
    eval::ExperimentRunner runner(cfg, setup.store);
    for (const std::string &c : creds)
        out.trials.push_back(runner.runTrial(c));
    out.hostSeconds = nowS() - t0;
    android::Device &device = runner.device();
    out.frames = device.engine().framesRendered();
    out.events = device.eq().dispatched();
    out.simSeconds = device.eq().now().seconds();

    std::uint64_t h = fnv1a(&out.frames, sizeof out.frames);
    h = fnv1a(&out.events, sizeof out.events, h);
    const gpu::CounterTotals totals = device.engine().readAll();
    h = fnv1a(totals.data(), sizeof(totals), h);
    for (const eval::TrialResult &t : out.trials)
        h = fnv1a(t.truth + '\n' + t.inferred + '\n', h);
    out.hash = h;
    return out;
}

} // namespace perfbench
