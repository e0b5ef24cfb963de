/**
 * @file
 * Command-line experiment runner — the public API as a tool.
 *
 * Runs an accuracy experiment for any device configuration without
 * writing code:
 *
 *   experiment_cli [--phone P] [--keyboard K] [--app A]
 *                  [--refresh HZ] [--resolution FHD+|QHD+]
 *                  [--os N] [--speed slow|medium|fast|mixed]
 *                  [--cpu-load F] [--gpu-load F] [--interval MS]
 *                  [--trials N] [--min-len N] [--max-len N]
 *                  [--typo-prob F] [--seed N] [--list]
 *
 * Driver-hostility (fault-injection) options exercise the hardened
 * sampling pipeline against a realistic KGSL driver:
 *
 *   experiment_cli --collapse-every 2000 --wrap32 \
 *                  --transient-prob 0.1 --reset-at 5000 \
 *                  --registers 5:8 --competitor 7:4:30
 *
 * Defense-arena options put a counter-degrading policy stack on the
 * victim's driver (src/kgsl/defense.h) and pick the attacker mode:
 *
 *   experiment_cli --defense rate:48 --defense quant:192 \
 *                  --attacker robust
 *
 * Telemetry (src/obs/): --telemetry prints the decision funnel and
 * per-stage latency tables; the output flags additionally export
 * machine-readable snapshots:
 *
 *   experiment_cli --metrics-out=metrics.json \
 *                  --chrome-trace=trace.json --audit-out=audit.jsonl
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "android/keyboard.h"
#include "android/phone.h"
#include "arena/matrix.h"
#include "eval/experiment.h"
#include "exec/parallel_runner.h"
#include "obs/live/live_plane.h"
#include "obs/telemetry.h"
#include "util/logging.h"
#include "util/table.h"

using namespace gpusc;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --phone <id>        victim phone (default oneplus8pro)\n"
        "  --keyboard <name>   on-screen keyboard (default gboard)\n"
        "  --app <name>        target app (default chase)\n"
        "  --refresh <hz>      60 or 120 (default: phone default)\n"
        "  --resolution <r>    FHD+ or QHD+ (default: phone default)\n"
        "  --os <version>      Android major version\n"
        "  --speed <band>      slow|medium|fast|mixed\n"
        "  --cpu-load <f>      concurrent CPU load 0..1\n"
        "  --gpu-load <f>      concurrent GPU load 0..1\n"
        "  --interval <ms>     counter sampling interval (default 8)\n"
        "  --trials <n>        credentials to type (default 100)\n"
        "  --min-len/--max-len credential lengths (default 8/16)\n"
        "  --typo-prob <f>     correction behaviour (default 0)\n"
        "  --seed <n>          RNG seed (default 1)\n"
        "  --threads <n>       worker threads for the trial campaign\n"
        "                      (default 1 = serial; >1 shards trials\n"
        "                      across src/exec/, deterministically)\n"
        "  --list              print known phones/keyboards/apps\n"
        "fault injection (driver hostility):\n"
        "  --transient-prob <f>  P(EINTR/EAGAIN) per GET/READ ioctl\n"
        "  --collapse-every <ms> GPU power collapse period\n"
        "  --wrap32              32-bit counter truncation/wraparound\n"
        "  --wrap32-offset <n>   pre-attack register bias (wrap32)\n"
        "  --reset-at <ms>       device reset epoch (repeatable)\n"
        "  --registers <g:n>     physical registers in group g\n"
        "  --competitor <g:n:s>  profiler holding n registers of\n"
        "                        group g until it exits at s seconds\n"
        "  --fault-seed <n>      fault injector RNG seed\n"
        "defense arena (src/kgsl/defense.h, src/arena/):\n"
        "  --defense <dial>      add one defense dial (repeatable):\n"
        "                        rbac | rbac-open | rate:<reads/s> |\n"
        "                        rate-stale:<reads/s> | quant:<step> |\n"
        "                        noise:<amplitude>\n"
        "  --attacker <mode>     naive (default) or robust — the\n"
        "                        pacing/re-estimating/voting attacker\n"
        "telemetry (src/obs/):\n"
        "  --telemetry           print funnel + stage-latency tables\n"
        "  --metrics-out <json>  write the metrics snapshot\n"
        "  --chrome-trace <json> write spans as Chrome trace events\n"
        "  --audit-out <jsonl>   write the decision audit trail\n"
        "  (each output flag also accepts --flag=path and implies\n"
        "   --telemetry)\n"
        "live telemetry plane (src/obs/live/, --threads 1 only):\n"
        "  --live-metrics <sink> integer = HTTP port (0 ephemeral),\n"
        "                        else JSONL window-record path\n"
        "  --slo <rules>         SLO watchdog rules file\n",
        argv0);
}

void
listRegistries()
{
    std::printf("phones   :");
    for (const auto &id : android::phoneIds())
        std::printf(" %s", id.c_str());
    std::printf("\nkeyboards:");
    for (const auto &name : android::keyboardNames())
        std::printf(" %s", name.c_str());
    std::printf("\napps     :");
    for (const auto &name : android::nativeAppNames())
        std::printf(" %s", name.c_str());
    for (const auto &name : android::webAppNames())
        std::printf(" %s", name.c_str());
    std::printf(" pnc\n");
}

/** Fold one --defense dial spec into the stack. */
void
parseDefenseDial(kgsl::DefenseConfig &defense, const std::string &spec)
{
    const std::size_t colon = spec.find(':');
    const std::string dial = spec.substr(0, colon);
    const double arg = colon == std::string::npos
                           ? 0.0
                           : std::atof(spec.c_str() + colon + 1);
    if (dial == "rbac") {
        defense.rbac = true;
    } else if (dial == "rbac-open") {
        defense.rbac = true;
        defense.restrictOpen = true;
    } else if (dial == "rate" || dial == "rate-stale") {
        if (arg <= 0.0)
            fatal("--defense %s wants :<reads/s>", dial.c_str());
        defense.readsPerSecond = arg;
        defense.overBudget =
            dial == "rate-stale"
                ? kgsl::DefenseConfig::OverBudget::Stale
                : kgsl::DefenseConfig::OverBudget::Eagain;
    } else if (dial == "quant") {
        if (arg < 2.0)
            fatal("--defense quant wants :<step >= 2>");
        defense.quantStep = std::uint64_t(arg);
    } else if (dial == "noise") {
        if (arg <= 0.0)
            fatal("--defense noise wants :<amplitude>");
        defense.noiseAmplitude = std::uint64_t(arg);
    } else {
        fatal("unknown defense dial '%s'", spec.c_str());
    }
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

} // namespace

int
main(int argc, char **argv)
{
    eval::ExperimentConfig cfg;
    int trials = 100;
    std::size_t minLen = 8, maxLen = 16;
    std::size_t threads = 1;
    bool telemetryOn = false;
    std::string metricsOut, chromeTrace, auditOut;
    std::string liveMetrics, sloPath;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        // The telemetry output flags also accept --flag=path.
        auto pathFlag = [&](const char *name,
                            std::string &out) -> bool {
            const std::string prefix = std::string(name) + "=";
            if (arg == name)
                out = value();
            else if (arg.rfind(prefix, 0) == 0)
                out = arg.substr(prefix.size());
            else
                return false;
            if (out.empty())
                fatal("empty path for %s", name);
            return true;
        };
        if (pathFlag("--metrics-out", metricsOut) ||
            pathFlag("--chrome-trace", chromeTrace) ||
            pathFlag("--audit-out", auditOut) ||
            pathFlag("--live-metrics", liveMetrics) ||
            pathFlag("--slo", sloPath))
            continue;
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--list") {
            listRegistries();
            return 0;
        } else if (arg == "--phone") {
            cfg.device.phone = value();
        } else if (arg == "--keyboard") {
            cfg.device.keyboard = value();
        } else if (arg == "--app") {
            cfg.device.app = value();
        } else if (arg == "--refresh") {
            cfg.device.refreshHz = std::atoi(value());
        } else if (arg == "--resolution") {
            cfg.device.resolution = value();
        } else if (arg == "--os") {
            cfg.device.osVersion = std::atoi(value());
        } else if (arg == "--speed") {
            const std::string band = value();
            if (band == "slow")
                cfg.speed = workload::TypingSpeed::Slow;
            else if (band == "medium")
                cfg.speed = workload::TypingSpeed::Medium;
            else if (band == "fast")
                cfg.speed = workload::TypingSpeed::Fast;
            else if (band == "mixed")
                cfg.speed = workload::TypingSpeed::Mixed;
            else
                fatal("unknown speed band '%s'", band.c_str());
        } else if (arg == "--cpu-load") {
            cfg.cpuLoad = std::atof(value());
        } else if (arg == "--gpu-load") {
            cfg.gpuLoad = std::atof(value());
        } else if (arg == "--interval") {
            cfg.attackParams.samplingInterval =
                SimTime::fromMs(std::atoi(value()));
        } else if (arg == "--trials") {
            trials = std::atoi(value());
        } else if (arg == "--min-len") {
            minLen = std::size_t(std::atoi(value()));
        } else if (arg == "--max-len") {
            maxLen = std::size_t(std::atoi(value()));
        } else if (arg == "--typo-prob") {
            cfg.typoProb = std::atof(value());
        } else if (arg == "--seed") {
            cfg.seed = std::uint64_t(std::atoll(value()));
        } else if (arg == "--threads") {
            const int n = std::atoi(value());
            if (n < 1)
                fatal("--threads wants a positive count");
            threads = std::size_t(n);
        } else if (arg == "--transient-prob") {
            cfg.faultPlan.transientErrorProb = std::atof(value());
        } else if (arg == "--collapse-every") {
            cfg.faultPlan.powerCollapseInterval =
                SimTime::fromMs(std::atoi(value()));
        } else if (arg == "--wrap32") {
            cfg.faultPlan.wrap32 = true;
        } else if (arg == "--wrap32-offset") {
            cfg.faultPlan.wrap32 = true;
            cfg.faultPlan.wrap32Offset =
                std::uint64_t(std::atoll(value()));
        } else if (arg == "--reset-at") {
            cfg.faultPlan.deviceResets.push_back(
                SimTime::fromMs(std::atoi(value())));
        } else if (arg == "--registers") {
            unsigned group = 0, regs = 0;
            if (std::sscanf(value(), "%u:%u", &group, &regs) != 2)
                fatal("--registers wants GROUP:COUNT");
            cfg.faultPlan.groupRegisters[group] = regs;
        } else if (arg == "--competitor") {
            unsigned group = 0, regs = 0;
            double exitS = 0.0;
            if (std::sscanf(value(), "%u:%u:%lf", &group, &regs,
                            &exitS) != 3)
                fatal("--competitor wants GROUP:COUNT:EXIT_SECONDS");
            cfg.faultPlan.competitors.push_back(
                {group, regs, SimTime::fromSeconds(exitS)});
        } else if (arg == "--fault-seed") {
            cfg.faultPlan.seed = std::uint64_t(std::atoll(value()));
        } else if (arg == "--defense") {
            parseDefenseDial(cfg.defense, value());
        } else if (arg == "--attacker") {
            const std::string mode = value();
            if (mode != "naive" && mode != "robust")
                fatal("--attacker wants naive or robust");
            arena::applyAttacker(cfg, {mode, mode == "robust"});
        } else if (arg == "--telemetry") {
            telemetryOn = true;
        } else {
            usage(argv[0]);
            fatal("unknown option '%s'", arg.c_str());
        }
    }

    obs::Telemetry telemetry;
    if (telemetryOn || !metricsOut.empty() || !chromeTrace.empty() ||
        !auditOut.empty() || !liveMetrics.empty() || !sloPath.empty())
        cfg.telemetry = &telemetry;

    // Live telemetry plane over the campaign context, ticked from the
    // per-trial listener with trial-end sim time. Listener campaigns
    // are inline-only (see ParallelRunner::setTrialListener), so the
    // plane observes one shared registry that grows trial by trial.
    std::unique_ptr<obs::live::LivePlane> plane;
    SimTime lastTrialEnd;
    if (!liveMetrics.empty() || !sloPath.empty()) {
        if (threads != 1)
            fatal("--live-metrics/--slo require --threads 1 (the "
                  "live plane ticks from the trial listener, which "
                  "is inline-only)");
        obs::live::LiveConfig lc;
        // A trial spans seconds of sim time; stretch the window
        // geometry so a campaign yields a readable series instead of
        // hundreds of empty 100 ms windows.
        lc.series.fineWidth = SimTime::fromSeconds(2.0);
        lc.series.coarsePerFine = 10;
        if (!liveMetrics.empty()) {
            if (isInteger(liveMetrics))
                lc.httpPort = std::atoi(liveMetrics.c_str());
            else
                lc.jsonlPath = liveMetrics;
        }
        if (!sloPath.empty()) {
            obs::live::SloParseError perr;
            lc.rules = obs::live::SloEngine::parseRules(
                readTextFile(sloPath), &perr);
            if (!perr.message.empty())
                fatal("--slo %s:%zu: %s", sloPath.c_str(), perr.line,
                      perr.message.c_str());
        }
        plane = std::make_unique<obs::live::LivePlane>(std::move(lc),
                                                       &telemetry);
        if (const obs::live::HttpEndpoint *ep = plane->endpoint())
            inform("live endpoint: http://127.0.0.1:%u/metrics",
                   unsigned(ep->port()));
    }

    std::vector<eval::TrialResult> results;
    eval::AccuracyStats stats;
    attack::HealthStats health{};
    kgsl::FaultInjector::Stats faultStats{};
    kgsl::DefenseOverhead defenseOverhead{};
    bool haveFaultStats = false;

    auto printModel = [](const attack::SignatureModel &m) {
        inform("model: %s (%zu signatures, C_th %.4f)",
               m.modelKey().c_str(), m.signatures().size(),
               m.threshold());
    };

    // Every thread count goes through the ParallelRunner (inline at
    // 1), so the campaign depends only on --seed, never on --threads.
    {
        exec::ParallelRunner runner(cfg, attack::ModelStore::global(),
                                    threads);
        printModel(runner.model());
        if (threads > 1)
            inform("parallel campaign: %zu threads, shard size %zu",
                   runner.threads(), runner.plan().shardSize);
        if (plane)
            runner.setTrialListener(
                [&](const eval::TrialResult &, SimTime now) {
                    lastTrialEnd = now;
                    plane->maybeTick(now);
                });
        exec::ParallelResult res =
            runner.runTrials(trials, minLen, maxLen);
        stats = res.stats;
        results = std::move(res.trials);
        health = res.health;
        faultStats = res.faults;
        defenseOverhead = res.defense;
        haveFaultStats = cfg.faultPlan.any();
    }

    if (plane) {
        plane->finish(lastTrialEnd);
        inform("live plane: %llu windows closed, alerts %s",
               (unsigned long long)plane->series().windowsClosed(),
               plane->slo().toJson().c_str());
    }

    if (cfg.defense.any()) {
        const kgsl::DefenseOverhead &d = defenseOverhead;
        Table dt({"defense metric", "value"});
        dt.addRow({"active stack", cfg.defense.label()});
        dt.addRow(
            {"access checks", std::to_string(d.accessChecks)});
        dt.addRow({"reads seen", std::to_string(d.readsSeen)});
        dt.addRow(
            {"reads throttled", std::to_string(d.readsThrottled)});
        dt.addRow({"stale serves", std::to_string(d.staleServes)});
        dt.addRow(
            {"values quantized", std::to_string(d.valuesQuantized)});
        dt.addRow({"values noised", std::to_string(d.valuesNoised)});
        dt.addRow({"defender cpu (modeled)",
                   Table::num(double(d.cpuNs) * 1e-3, 1) + " us"});
        dt.addRow({"attacker throttled reads",
                   std::to_string(health.throttledReads)});
        dt.addRow({"attacker pace backoffs",
                   std::to_string(health.paceBackoffs)});
        dt.addRow({"attacker effective interval",
                   Table::num(double(health.effectiveIntervalNs) *
                                  1e-6,
                              1) +
                       " ms"});
        dt.print("defense overhead & attacker degradation");
    }

    Table table({"metric", "value"});
    table.addRow({"trials", std::to_string(stats.trials())});
    table.addRow({"text accuracy", Table::pct(stats.textAccuracy())});
    table.addRow(
        {"key-press accuracy", Table::pct(stats.charAccuracy())});
    table.addRow(
        {"avg wrong keys/text", Table::num(stats.avgErrorsPerText())});
    for (auto g :
         {workload::CharGroup::Lower, workload::CharGroup::Upper,
          workload::CharGroup::Number, workload::CharGroup::Symbol}) {
        table.addRow({workload::charGroupName(g) + " accuracy",
                      Table::pct(stats.groupAccuracy(g))});
    }
    table.print("results");

    if (cfg.faultPlan.any() && haveFaultStats) {
        const kgsl::FaultInjector::Stats &fs = faultStats;
        const attack::HealthStats &h = health;
        Table healthTable({"health metric", "value"});
        healthTable.addRow({"faults: transient errors",
                            std::to_string(fs.transientErrors)});
        healthTable.addRow(
            {"faults: busy denials", std::to_string(fs.busyDenials)});
        healthTable.addRow({"faults: power collapses",
                            std::to_string(fs.powerCollapses)});
        healthTable.addRow(
            {"faults: device resets", std::to_string(fs.deviceResets)});
        healthTable.addRow({"sampler: transient retries",
                            std::to_string(h.transientRetries)});
        healthTable.addRow(
            {"sampler: busy retries", std::to_string(h.busyRetries)});
        healthTable.addRow(
            {"sampler: reopens", std::to_string(h.reopens)});
        healthTable.addRow({"sampler: resets survived",
                            std::to_string(h.resetsSurvived)});
        healthTable.addRow({"sampler: watchdog recoveries",
                            std::to_string(h.watchdogRecoveries)});
        healthTable.addRow(
            {"sampler: missed reads", std::to_string(h.missedReads)});
        healthTable.addRow(
            {"stream: re-baselines", std::to_string(h.streamResets)});
        healthTable.addRow({"stream: wraps repaired",
                            std::to_string(h.wrapsRepaired)});
        // countersHeld sums over the per-shard devices, so held/total
        // against one device's register file would mislead here.
        healthTable.addRow({"counters held (all shards)",
                            std::to_string(h.countersHeld)});
        healthTable.print("pipeline health");
    }

    int shown = 0;
    for (const auto &r : results) {
        if (r.truth != r.inferred && shown++ < 5)
            std::printf("  miss: truth='%s' inferred='%s'\n",
                        r.truth.c_str(), r.inferred.c_str());
    }

    if (cfg.telemetry) {
        const obs::AuditTrail &audit = telemetry.audit;
        auto ctr = [&](const char *name) {
            return std::to_string(
                telemetry.metrics.counter(name).value());
        };
        auto dec = [&](obs::Decision d) {
            return std::to_string(audit.count(d));
        };
        Table funnel({"funnel stage", "count"});
        funnel.addRow({"readings in", ctr("pipeline.readings_in")});
        funnel.addRow({"changes in", ctr("infer.changes_in")});
        funnel.addRow(
            {"  accepted as key",
             dec(obs::Decision::AcceptedKey)});
        funnel.addRow(
            {"  split repaired", dec(obs::Decision::SplitRepaired)});
        funnel.addRow({"  duplication dropped",
                       dec(obs::Decision::DuplicationDrop)});
        funnel.addRow(
            {"  noise rejected", dec(obs::Decision::NoiseRejected)});
        funnel.addRow({"  app-switch suppressed",
                       dec(obs::Decision::SuppressedAppSwitch)});
        funnel.addRow({"discontinuity re-baselines",
                       dec(obs::Decision::DiscontinuityDropped)});
        funnel.addRow({"sampler suspensions",
                       dec(obs::Decision::SamplerSuspended)});
        funnel.addRow({"sampler recoveries",
                       dec(obs::Decision::SamplerRecovered)});
        funnel.print("decision funnel");

        Table lat({"stage", "count", "p50 us", "p90 us", "p99 us",
                   "max us"});
        auto latRow = [&](const std::string &name,
                          const obs::LogHistogram &h) {
            const double us = 1e-3;
            lat.addRow({name, std::to_string(h.count()),
                        Table::num(double(h.p50()) * us, 3),
                        Table::num(double(h.p90()) * us, 3),
                        Table::num(double(h.p99()) * us, 3),
                        Table::num(double(h.max()) * us, 3)});
        };
        for (const auto &[name, h] :
             telemetry.metrics.histograms())
            if (name.rfind("latency.", 0) == 0)
                latRow(name.substr(8), *h);
        latRow("all stages", telemetry.metrics.mergedLatency());
        lat.print("stage latency (host time)");

        // Effective per-classification cost through the SIMD argmin
        // kernel — the number bench/pipeline_throughput gates on,
        // here measured in situ over this campaign's classify lane.
        const auto &hists = telemetry.metrics.histograms();
        if (const auto it = hists.find("latency.attack.classify");
            it != hists.end() && it->second->count() > 0)
            inform("effective classify: %.1f ns/op over %llu "
                   "classifications",
                   it->second->mean(),
                   (unsigned long long)it->second->count());

        if (!metricsOut.empty() &&
            obs::Telemetry::writeFile(metricsOut,
                                      telemetry.metricsJson()))
            inform("telemetry: metrics -> %s", metricsOut.c_str());
        if (!chromeTrace.empty() &&
            obs::Telemetry::writeFile(
                chromeTrace, telemetry.tracer.chromeTraceJson()))
            inform("telemetry: chrome trace -> %s",
                   chromeTrace.c_str());
        if (!auditOut.empty() &&
            obs::Telemetry::writeFile(auditOut, audit.toJsonl()))
            inform("telemetry: audit trail -> %s", auditOut.c_str());
    }
    return 0;
}
