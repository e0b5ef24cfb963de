/**
 * @file
 * Standalone layer probes of the traced run: gfx scene build and the
 * gpu::Pipeline render over the workload's own surfaces, and the trace
 * codec, CRC and detached-inference costs over its recorded corpus.
 * Each probe times one public function in isolation and reports the
 * median of several repetitions.
 */

#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "gpu/pipeline.h"
#include "trace/trace_reader.h"
#include "trace/trace_replayer.h"
#include "trace/trace_writer.h"
#include "util/binary_io.h"

namespace perfbench {

namespace {

constexpr int kReps = 9;

/**
 * Median host ns of each of @p fns over kReps rounds, each round
 * running every function once in order. Interleaving puts the probes
 * that are compared with each other under the same host load.
 */
std::vector<double>
medianNs(const std::vector<std::function<void()>> &fns)
{
    std::vector<std::vector<double>> ns(fns.size());
    for (int r = 0; r < kReps; ++r)
        for (std::size_t i = 0; i < fns.size(); ++i) {
            const std::int64_t t0 = obs::hostNowNs();
            fns[i]();
            ns[i].push_back(double(obs::hostNowNs() - t0));
        }
    std::vector<double> out;
    for (std::vector<double> &v : ns)
        out.push_back(median(std::move(v)));
    return out;
}

/**
 * The frames the window manager would render while one key is typed
 * per letter: the IME (popup per key), the app (field echo, cursor,
 * animation) and the status bar. The surfaces are detached from the
 * window manager and polled once per vsync period, so each captured
 * scene carries exactly the damage that vsync would have drawn.
 */
std::vector<gfx::FrameScene>
captureScenes(android::Device &dev,
              std::vector<const android::Surface *> &owners)
{
    using namespace sim_literals;
    dev.launchTargetApp();
    dev.runFor(1000_ms);
    android::Surface *surfaces[] = {&dev.ime(), &dev.app(),
                                    &dev.statusBar()};
    for (android::Surface *s : surfaces)
        dev.wm().removeSurface(s);
    const SimTime period = dev.wm().vsyncPeriod();
    std::vector<gfx::FrameScene> scenes;
    for (char c = 'a'; c <= 'z'; ++c) {
        const std::vector<const android::Key *> keys =
            dev.ime().keysFor(c);
        if (keys.size() != 1)
            continue;
        dev.ime().pressKey(*keys.front(), 120_ms);
        for (SimTime t{}; t < 400_ms; t += period) {
            dev.runFor(period);
            for (android::Surface *s : surfaces) {
                if (!s->visible() || !s->hasDamage())
                    continue;
                gfx::FrameScene scene;
                scene.damage = s->takeDamage();
                s->buildScene(scene);
                scenes.push_back(std::move(scene));
                owners.push_back(s);
            }
        }
    }
    return scenes;
}

} // namespace

ProbeResult
runProbes(const Workload &w, Setup &setup, const std::string &workDir)
{
    ProbeResult out;

    // --- gfx + gpu: scene build and standalone render. ---
    android::Device dev(deviceConfig(w));
    std::vector<const android::Surface *> owners;
    const std::vector<gfx::FrameScene> scenes =
        captureScenes(dev, owners);
    const double frames = double(scenes.size());
    std::size_t sink = 0;
    gpu::Pipeline pipeline(dev.engine().model());
    std::int64_t pixels = 0;
    std::size_t prims = 0;
    for (const gfx::FrameScene &s : scenes) {
        pixels += pipeline.render(s).rasterizedPixels;
        prims += s.prims.size();
    }
    const std::vector<double> gfxNs = medianNs({
        [&] {
            for (std::size_t i = 0; i < scenes.size(); ++i) {
                gfx::FrameScene scene;
                scene.damage = scenes[i].damage;
                owners[i]->buildScene(scene);
                sink += scene.prims.size();
            }
        },
        [&] {
            for (const gfx::FrameScene &s : scenes)
                sink += std::size_t(pipeline.render(s).deltas[0]);
        },
    });
    out.sceneBuildUsPerFrame = gfxNs[0] / frames * 1e-3;
    out.renderUsPerFrame = gfxNs[1] / frames * 1e-3;
    out.renderNsPerPx =
        gfxNs[1] / double(std::max<std::int64_t>(pixels, 1));
    out.primsPerFrame = double(prims) / frames;

    // --- trace codec, CRC, detached inference over the corpus. ---
    std::uint64_t readings = 0;
    std::uint64_t bytes = 0;
    std::vector<std::vector<std::uint8_t>> raw;
    for (const CorpusFile &f : setup.corpus) {
        readings += f.readings.size();
        bytes += f.bytes;
        std::vector<std::uint8_t> data(f.bytes);
        if (std::FILE *fp = std::fopen(f.path.c_str(), "rb")) {
            data.resize(std::fread(data.data(), 1, data.size(), fp));
            std::fclose(fp);
        }
        raw.push_back(std::move(data));
    }
    const double perReading =
        1.0 / double(std::max<std::uint64_t>(readings, 1));
    out.bytesPerReading = double(bytes) * perReading;

    const std::string encodePath =
        workDir + "/probe-encode" + trace::kTraceExtension;
    const attack::SignatureModel &model =
        setup.store.all().begin()->second;
    // Detached pipeline fed pre-decoded readings in replay's batches.
    constexpr std::size_t kBatch = 256;
    auto feedAll = [&](const attack::Eavesdropper::Params &params) {
        for (const CorpusFile &f : setup.corpus) {
            attack::Eavesdropper eve(model, params);
            const std::span<const attack::Reading> all(f.readings);
            for (std::size_t i = 0; i < all.size(); i += kBatch)
                eve.feedReadings(
                    all.subspan(i, std::min(kBatch, all.size() - i)));
            sink += eve.events().size();
        }
    };
    const std::vector<double> ns = medianNs({
        [&] { // decode: the TraceReader::next loop, CRC included
            for (const CorpusFile &f : setup.corpus) {
                trace::TraceReader reader;
                if (reader.open(f.path) != trace::TraceError::None)
                    continue;
                trace::TraceRecord rec;
                bool eof = false;
                while (reader.next(rec, eof) == trace::TraceError::None &&
                       !eof)
                    sink += rec.kind == trace::RecordKind::Reading;
            }
        },
        [&] {
            for (const auto &data : raw)
                sink += crc32(data);
        },
        [&] {
            trace::TraceWriter writer;
            if (writer.open(encodePath, trace::TraceHeader{}) !=
                trace::TraceError::None)
                return;
            for (const CorpusFile &f : setup.corpus)
                for (const attack::Reading &r : f.readings)
                    writer.writeReading(r);
            writer.close();
        },
        [&] { feedAll(attack::Eavesdropper::Params{}); },
        [&] {
            for (const CorpusFile &f : setup.corpus) {
                trace::TraceReplayer replayer(setup.store);
                replayer.replayFile(f.path);
                sink += replayer.readingsReplayed();
            }
        },
    });
    std::remove(encodePath.c_str());
    out.decodeNsPerReading = ns[0] * perReading;
    out.crcNsPerByte = ns[1] / double(std::max<std::uint64_t>(bytes, 1));
    out.encodeNsPerReading = ns[2] * perReading;
    out.feedNsPerReading = ns[3] * perReading;
    out.replayNsPerReading = ns[4] * perReading;

    obs::Telemetry tel;
    attack::Eavesdropper::Params counted;
    counted.telemetry = &tel;
    feedAll(counted);
    out.changesPerKReading =
        double(tel.metrics.counter("infer.changes_in").value()) * 1e3 *
        perReading;
    if (sink == 0) // keep the timed work observable
        std::printf("# probe sink empty\n");
    return out;
}

} // namespace perfbench
