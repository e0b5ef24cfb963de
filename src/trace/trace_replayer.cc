#include "trace/trace_replayer.h"

#include "attack/change_detector.h"
#include "util/logging.h"

namespace gpusc::trace {

TraceReplayer::TraceReplayer(const attack::SignatureModel &model,
                             attack::Eavesdropper::Params params)
    : model_(&model), params_(params)
{
}

TraceReplayer::TraceReplayer(const attack::ModelStore &store,
                             attack::Eavesdropper::Params params)
    : store_(&store), params_(params)
{
}

TraceError
TraceReplayer::replayFile(const std::string &path)
{
    TraceReader reader;
    const TraceError err = reader.open(path);
    if (err != TraceError::None)
        return err;
    return replay(reader);
}

TraceError
TraceReplayer::replay(TraceReader &reader)
{
    header_ = reader.header();
    trials_.clear();
    readings_ = 0;
    faults_ = 0;

    // Fresh detached pipeline per replay. With a store, prefer the
    // exact model for the recorded device key; an unknown key falls
    // back to online device recognition from the replayed changes.
    const attack::SignatureModel *model = model_;
    if (!model && store_)
        model = store_->find(header_.deviceKey);
    if (model) {
        eavesdropper_ = std::make_unique<attack::Eavesdropper>(
            *model, params_);
    } else if (store_) {
        eavesdropper_ = std::make_unique<attack::Eavesdropper>(
            *store_, params_);
    } else {
        panic("TraceReplayer: neither model nor store available");
    }

    TraceRecord rec;
    bool eof = false;
    bool inTrial = false;
    for (;;) {
        const TraceError err = reader.next(rec, eof);
        if (err != TraceError::None)
            return err;
        if (eof)
            break;
        switch (rec.kind) {
          case RecordKind::Reading:
            ++readings_;
            eavesdropper_->feedReading(rec.reading);
            break;
          case RecordKind::TrialBegin:
            trials_.push_back(
                {rec.text, std::string(), rec.time, SimTime::max()});
            inTrial = true;
            break;
          case RecordKind::TrialEnd:
            if (inTrial) {
                trials_.back().end = rec.time;
                inTrial = false;
            }
            break;
          case RecordKind::Fault:
            // Faults are annotations: their *effects* live in the
            // Reading stream, so replay stays bit-identical by
            // feeding readings alone. Count them for diagnostics.
            ++faults_;
            break;
          default:
            break; // other ground truth is not needed for replay
        }
    }

    // The stream is fully fed: push the batched telemetry tallies
    // out so exported metrics are exact for this replay.
    eavesdropper_->flushTelemetry();

    // Score trials exactly like ExperimentRunner::runTrial: the
    // inferred text is the event stream restricted to the trial's
    // [begin, end] window.
    for (Trial &t : trials_)
        t.inferred =
            eavesdropper_->inferredTextBetween(t.begin, t.end);
    return TraceError::None;
}

std::vector<attack::InferredKey>
TraceReplayer::inferOffline(const std::string &path,
                            TraceError *errOut)
{
    auto setErr = [&](TraceError e) {
        if (errOut)
            *errOut = e;
    };
    setErr(TraceError::None);

    TraceReader reader;
    TraceError err = reader.open(path);
    if (err != TraceError::None) {
        setErr(err);
        return {};
    }
    const attack::SignatureModel *model = model_;
    if (!model && store_)
        model = store_->find(reader.header().deviceKey);
    if (!model) {
        warn("TraceReplayer: no model for device key '%s'",
             reader.header().deviceKey.c_str());
        setErr(TraceError::None);
        return {};
    }

    attack::ChangeDetector changes;
    std::vector<attack::PcChange> trace;
    TraceRecord rec;
    bool eof = false;
    for (;;) {
        err = reader.next(rec, eof);
        if (err != TraceError::None) {
            setErr(err);
            return {};
        }
        if (eof)
            break;
        if (rec.kind != RecordKind::Reading)
            continue;
        if (auto c = changes.onReading(rec.reading))
            trace.push_back(*c);
    }
    const attack::TraceInference inference(*model,
                                           params_.inference);
    return inference.infer(trace);
}

} // namespace gpusc::trace
