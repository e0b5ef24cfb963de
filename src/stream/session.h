/**
 * @file
 * One victim session of the streaming ingest service.
 *
 * A session bundles everything one eavesdropping target needs:
 *  - its own SignatureModel *copy* (online adaptation mutates it, so
 *    sessions never share a model instance),
 *  - a detached attack::Eavesdropper consuming readings through
 *    feedReading() — the identical code path trace::TraceReplayer
 *    uses, which is what makes single-session ingest bit-identical
 *    to trace replay,
 *  - a bounded SpscRing of pending readings (the ingest queue),
 *  - an optional TemplateUpdater wired to the eavesdropper's
 *    accept listener,
 *  - a private obs::Telemetry context, merged into the service
 *    aggregate in session-id order so the aggregate is identical
 *    for any pump-worker count.
 *
 * Sessions are created and drained by stream::SessionManager /
 * stream::IngestService; nothing here is thread-safe on its own
 * beyond the ring's SPSC contract.
 */

#ifndef GPUSC_STREAM_SESSION_H
#define GPUSC_STREAM_SESSION_H

#include <cstdint>
#include <memory>

#include "attack/eavesdropper.h"
#include "obs/live/exposition.h"
#include "obs/telemetry.h"
#include "stream/spsc_ring.h"
#include "stream/template_updater.h"

namespace gpusc::stream {

/** Stable identity of one victim session. */
using SessionId = std::uint64_t;

/** Per-session construction knobs (shared by all sessions). */
struct SessionConfig
{
    /** Ingest queue depth, readings. */
    std::size_t ringCapacity = 256;
    /**
     * Pipeline knobs for the per-session eavesdropper. The telemetry
     * field is ignored — each session gets its own context.
     */
    attack::Eavesdropper::Params eavesdropper{};
    /**
     * Ring capacities of the per-session telemetry context. Small by
     * default: a service holds thousands of sessions, and decision
     * *counts* (which the funnel identity is checked on) are never
     * bounded by these rings.
     */
    obs::Telemetry::Params telemetry{.spanCapacity = 256,
                                     .auditCapacity = 1024};
    /** Enable online template adaptation. */
    bool adaptation = true;
    TemplateUpdater::Params adaptationParams{};
};

/** One victim session: queue + model copy + inference pipeline. */
class Session
{
  public:
    /** @param base model to copy; adaptation mutates only the copy. */
    Session(SessionId id, const attack::SignatureModel &base,
            const SessionConfig &config);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    SessionId id() const { return id_; }

    /** The ingest queue (producer: offer; consumer: pump). */
    SpscRing<attack::Reading> &ring() { return ring_; }
    const SpscRing<attack::Reading> &ring() const { return ring_; }

    /**
     * Drain the ring into the inference pipeline. Consumer-side;
     * called by the ingest pump (possibly from a pool worker, but
     * never concurrently for one session).
     * @return readings processed.
     */
    std::size_t drain();

    attack::Eavesdropper &eavesdropper() { return *eavesdropper_; }
    const attack::Eavesdropper &eavesdropper() const
    {
        return *eavesdropper_;
    }

    /** The session's mutable model copy. */
    const attack::SignatureModel &model() const { return model_; }

    /** Null when adaptation is disabled. */
    const TemplateUpdater *updater() const { return updater_.get(); }

    obs::Telemetry &telemetry() { return telemetry_; }
    const obs::Telemetry &telemetry() const { return telemetry_; }

    /**
     * Estimated resident bytes of this session: the ring's slot
     * array, the serialised model size, the telemetry ring
     * capacities and the stolen-event backlog. An *accounting*
     * figure for the manager's budget, not an allocator census — it
     * is deterministic for a given ingest history, which is what LRU
     * eviction tests pin.
     */
    std::size_t memoryBytes() const;

    /** Total readings ever drained into the pipeline. */
    std::uint64_t readingsDrained() const { return drained_; }

    /** Backpressure bookkeeping, called by the ingest service when
     *  it sheds on this session's behalf (the service's aggregate
     *  counters can't say *which* session was overloaded). */
    void noteShedOldest() { ++shedOldest_; }
    void noteShedNewest() { ++shedNewest_; }
    /** Sim time of the most recent reading offered to this session
     *  (stamps the health view). */
    void noteOffer(SimTime t) { lastSeen_ = t; }

    std::uint64_t shedOldest() const { return shedOldest_; }
    std::uint64_t shedNewest() const { return shedNewest_; }

    /**
     * This session's health as the live telemetry plane exposes it
     * through /sessions and obs_top: queue depth, drain/shed
     * counts, adaptation activity, accepted keys, accounted memory.
     * A pure read — building a view perturbs nothing.
     */
    obs::live::SessionHealth healthView() const;

    /** LRU bookkeeping, owned by the SessionManager. */
    std::uint64_t lastTouch = 0;
    /** memoryBytes() as last folded into the manager's cached total;
     *  owned by the SessionManager. */
    std::size_t accountedBytes = 0;

  private:
    SessionId id_;
    attack::SignatureModel model_;
    std::size_t modelBytes_;
    obs::Telemetry telemetry_;
    SpscRing<attack::Reading> ring_;
    std::size_t telemetryRingBytes_;
    std::uint64_t drained_ = 0;
    std::uint64_t shedOldest_ = 0;
    std::uint64_t shedNewest_ = 0;
    SimTime lastSeen_{};
    /** Declared after telemetry_ (its dtor flushes into it). */
    std::unique_ptr<attack::Eavesdropper> eavesdropper_;
    std::unique_ptr<TemplateUpdater> updater_;
};

} // namespace gpusc::stream

#endif // GPUSC_STREAM_SESSION_H
