/**
 * @file
 * Shared declarations of the benchmark: the workload table, the
 * set-up products (trained store + recorded corpus), the measured
 * phases and the traced probes. Every call into the program goes
 * through its public API; timing and spans live here, never in src/.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "attack/model_store.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "obs/telemetry.h"
#include "report.h"

namespace perfbench {

using namespace gpusc;

/** Trials per campaign round: one ParallelRunner shard. */
inline constexpr int kRoundTrials = 8;
inline constexpr std::size_t kMinLen = 8;
inline constexpr std::size_t kMaxLen = 16;
/** Set-ups per run (setup_s is their median). */
inline constexpr int kSetups = 5;
/** Readings each session is offered per ingest pump batch. */
inline constexpr std::size_t kIngestChunk = 64;
/** Pump workers of the ingest service. */
inline constexpr std::size_t kPumpThreads = 2;
/**
 * Reconciliation tolerance: decode + detached-feed time per reading
 * must be within this share of replay's host time per reading.
 */
inline constexpr double kReconcileTolerance = 0.20;
/** Campaign spans must cover at least this share of round time. */
inline constexpr double kCoverageFloor = 0.99;
/**
 * Host-speed reference: a fixed integer kernel (hostKernel) runs
 * interleaved with the measured work for this share of the time. Its
 * fast-decile call rate, against kReferenceHostCallsPerS, scales every
 * timed end-to-end figure to the reference host speed, so a run that
 * lands on a busy stretch of a shared host reads like one on a quiet
 * stretch. The reference is the kernel's fast-decile rate on the
 * 4-vCPU Xeon host the baseline was measured on.
 */
inline constexpr double kHostShare = 0.04;
/** ~20 ms per call, as long as a typical unit of measured work, so
 *  the kernel's fast decile sees the same mix of busy and quiet
 *  stretches as the units it scales. */
inline constexpr int kHostKernelIters = 8000000;
inline constexpr double kReferenceHostCallsPerS = 50.0;

/** The host-speed kernel; returns a checksum that never changes. */
std::uint64_t hostKernel();

/** One named workload. */
struct Workload
{
    std::string name;
    /** Target app (the phone and keyboard are the defaults). */
    std::string app;
    /** Recorded corpus: files x trials per file, set-up only. */
    int corpusFiles;
    int trialsPerFile;
    /** Campaign rounds always run and scored for key accuracy. */
    int accRounds;
    /** Cold trainings, spread evenly over the measured phase. */
    int trainings;
    /** Share of the measured time spent in campaign rounds; replay,
     *  export and ingest split the rest equally. */
    double roundShare;
    /** Ingest sessions the corpus fans out to. */
    std::size_t ingestSessions;
};

/** @return the workload named @p name, or null. */
const Workload *findWorkload(const std::string &name);
/** Comma-separated workload names (usage text). */
std::string workloadNames();

/** The workload's victim device configuration. */
android::DeviceConfig deviceConfig(const Workload &w);

/** Tracing context of a traced phase (a null Trace * = untraced):
 *  program telemetry of the campaign rounds and of the corpus replay
 *  kept apart, plus the benchmark's own spans. */
struct Trace
{
    obs::Telemetry campaign;
    obs::Telemetry replay;
    SpanLog spans;
};

/** One recorded .gpct file, decoded once at set-up. */
struct CorpusFile
{
    std::string path;
    std::uint64_t bytes = 0;
    std::vector<attack::Reading> readings;
    /** Ground-truth windows, in file order. */
    struct Window
    {
        std::string truth;
        SimTime begin;
        SimTime end;
    };
    std::vector<Window> windows;
    /** The live run's scored trials (replay must reproduce them). */
    std::vector<eval::TrialResult> live;
};

/** Everything set-up hands the measured phase. */
struct Setup
{
    attack::ModelStore store;
    std::vector<CorpusFile> corpus;
    std::vector<double> setupS;
    std::vector<double> trainS;
    /** hostKernel() calls per second, one call after each set-up. */
    std::vector<double> hostCallsPerS;
    std::uint64_t hostChecksum = 0;
    /** Serialised model of the first cold training. */
    std::vector<std::uint8_t> modelBytes;
    /** False when a repeated training serialised differently. */
    bool trainingsIdentical = true;
    bool recordingOk = true;
};

/** Train + record + decode the corpus, kSetups times. */
Setup runSetup(const Workload &w, std::uint64_t seed,
               const std::string &workDir);

/** Outcome of the campaign part of a measured phase. */
struct CampaignResult
{
    /** Trials per second of every round. */
    std::vector<double> roundRates;
    /** Seconds of every cold training. */
    std::vector<double> trainS;
    /** Trials of the fixed accuracy rounds, in order. */
    std::vector<eval::TrialResult> accTrials;
    std::uint64_t trials = 0;
    std::uint64_t failedTrials = 0;
    bool trainingsIdentical = true;
    /** Host seconds inside rounds, and inside the bench's trial spans. */
    double roundS = 0.0;
    double trialSpanS = 0.0;
};

/** Campaign units: one round through exec::ParallelRunner at one
 *  thread, or one cold OfflineTrainer::train. */
class Campaign
{
  public:
    Campaign(const Workload &w, std::uint64_t seed, Setup &setup,
             Trace *trace, CampaignResult &out)
        : w_(w), seed_(seed), setup_(setup), trace_(trace), out_(out)
    {
    }
    void round();
    void train();
    int rounds() const { return rounds_; }

  private:
    const Workload &w_;
    std::uint64_t seed_;
    Setup &setup_;
    Trace *trace_;
    CampaignResult &out_;
    int rounds_ = 0;
};

/** Simulated state of the digest pass (campaign round 0 replayed
 *  through one ExperimentRunner, exactly as ParallelRunner runs it). */
struct SimDigest
{
    std::vector<eval::TrialResult> trials;
    std::uint64_t frames = 0;
    std::uint64_t events = 0;
    double simSeconds = 0.0;
    double hostSeconds = 0.0;
    std::uint64_t hash = 0;
};

SimDigest runDigestPass(const Workload &w, std::uint64_t seed,
                        Setup &setup, obs::Telemetry *tel);

/** Outcome of the replay / export / ingest part of a measured phase. */
struct RescoreResult
{
    std::vector<double> replayRates;
    std::vector<double> exportRates;
    std::vector<double> ingestRates;
    std::vector<double> lagP50Ms;
    std::vector<double> lagP99Ms;
    /** Lag samples per ingest pass (one per session chunk). */
    std::size_t lagSamplesPerPass = 0;
    std::uint64_t fileOps = 0;
    std::uint64_t fileFailures = 0;
    std::uint64_t readingsOffered = 0;
    std::uint64_t readingsLost = 0;
    /** Accuracy of the corpus replay. */
    eval::AccuracyStats replayStats;
    /** Self-checks. */
    bool replayMatchesLive = true;
    bool exportRoundTrips = true;
    bool ingestConsistent = true;
    /** First ingest pass: stream-layer state. */
    std::size_t sessionsHeld = 0;
    double sessionMemoryMb = 0.0;
    std::uint64_t evictions = 0;
    std::uint64_t blockDrains = 0;
    std::uint64_t templateUpdates = 0;
    /** Traced passes: host ns spent in offer() and pump(). */
    double offerNs = 0.0;
    double pumpNs = 0.0;
    std::uint64_t ingestReadings = 0;
};

/** Corpus units: one replay, export or ingest pass over every file. */
class CorpusPasses
{
  public:
    CorpusPasses(const Workload &w, Setup &setup,
                 const std::string &workDir, Trace *trace,
                 RescoreResult &out)
        : w_(w), setup_(setup), workDir_(workDir), trace_(trace),
          out_(out)
    {
    }
    void replay();
    void exportAll();
    void ingest(exec::ThreadPool &pool);

  private:
    const Workload &w_;
    Setup &setup_;
    const std::string &workDir_;
    Trace *trace_;
    RescoreResult &out_;
    int replays_ = 0;
    int exports_ = 0;
    int ingests_ = 0;
};

/** Both halves of a measured phase. */
struct Measured
{
    CampaignResult camp;
    RescoreResult resc;
    /** hostKernel() calls per second, one per call. */
    std::vector<double> hostCallsPerS;
    /** Same, with one call on each pump worker at once. */
    std::vector<double> poolCallsPerS;
    std::uint64_t hostChecksum = 0;
    bool hostKernelStable = true;
};

/**
 * The measured phase: a closed loop that, for @p seconds, always runs
 * next the unit whose activity is furthest behind its time share, so
 * every activity's samples spread over the whole phase. Cold trainings
 * run at evenly spaced times. The loop runs past @p seconds only to
 * finish the fixed accuracy rounds, the trainings and one unit of
 * every activity.
 */
Measured runMeasured(const Workload &w, std::uint64_t seed, Setup &setup,
                     const std::string &workDir, double seconds,
                     Trace *trace);

/** Per-layer figures measured by standalone probes (traced run). */
struct ProbeResult
{
    double sceneBuildUsPerFrame = 0.0;
    double renderUsPerFrame = 0.0;
    double renderNsPerPx = 0.0;
    double primsPerFrame = 0.0;
    double decodeNsPerReading = 0.0;
    double crcNsPerByte = 0.0;
    double bytesPerReading = 0.0;
    double encodeNsPerReading = 0.0;
    double feedNsPerReading = 0.0;
    /** TraceReplayer::replayFile, timed beside decode and feed. */
    double replayNsPerReading = 0.0;
    double changesPerKReading = 0.0;
};

ProbeResult runProbes(const Workload &w, Setup &setup,
                      const std::string &workDir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
