#include "stream/session.h"

namespace gpusc::stream {

Session::Session(SessionId id, const attack::SignatureModel &base,
                 const SessionConfig &config)
    : id_(id), model_(base), modelBytes_(model_.byteSize()),
      telemetry_(config.telemetry), ring_(config.ringCapacity),
      telemetryRingBytes_(
          config.telemetry.spanCapacity * sizeof(obs::Span) +
          config.telemetry.auditCapacity * sizeof(obs::AuditRecord))
{
    attack::Eavesdropper::Params params = config.eavesdropper;
    params.telemetry = &telemetry_;
    eavesdropper_ =
        std::make_unique<attack::Eavesdropper>(model_, params);
    if (config.adaptation) {
        updater_ = std::make_unique<TemplateUpdater>(
            model_, config.adaptationParams);
        updater_->setTelemetry(&telemetry_);
        eavesdropper_->setAcceptListener(
            [this](const attack::InferredKey &key) {
                updater_->onAccepted(key);
            });
    }
}

std::size_t
Session::drain()
{
    std::size_t n = 0;
    attack::Reading r;
    while (ring_.tryPop(r)) {
        eavesdropper_->feedReading(r);
        ++n;
    }
    drained_ += n;
    return n;
}

obs::live::SessionHealth
Session::healthView() const
{
    obs::live::SessionHealth h;
    h.id = id_;
    h.ringDepth = ring_.size();
    h.ringCapacity = ring_.capacity();
    h.readingsDrained = drained_;
    h.shedOldest = shedOldest_;
    h.shedNewest = shedNewest_;
    h.templateUpdates = updater_ ? updater_->updatesApplied() : 0;
    h.acceptedKeys =
        telemetry_.audit.count(obs::Decision::AcceptedKey);
    h.memoryBytes = memoryBytes();
    h.lastTouch = lastSeen_;
    return h;
}

std::size_t
Session::memoryBytes() const
{
    return sizeof(Session) + ring_.slotBytes() + modelBytes_ +
           telemetryRingBytes_ +
           eavesdropper_->events().capacity() *
               sizeof(attack::StolenEvent);
}

} // namespace gpusc::stream
