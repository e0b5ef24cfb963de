/**
 * @file
 * The block codec against the per-record one it replaced
 * (codec_reference.h): identical bytes, identical records, and a cut
 * anywhere near a frame or block edge reads the intact prefix and
 * nothing else.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "codec_reference.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gpusc::trace {
namespace {

TraceHeader
testHeader()
{
    TraceHeader h;
    h.deviceKey = "pixel/gboard/chrome";
    h.seed = 42;
    return h;
}

/**
 * @p count records of all nine kinds, half of them readings, at
 * increasing times. Every field a kind does not carry keeps its
 * default, as a decoded record does. TrialBegin texts are random
 * bytes; the first is @p maxText long, the second empty, and a tenth
 * of the rest draw their length from [0, maxText].
 */
std::vector<TraceRecord>
randomStream(std::uint64_t seed, std::size_t count, std::size_t maxText)
{
    Rng rng(seed);
    std::vector<TraceRecord> out;
    std::int64_t ns = 0;
    std::size_t texts = 0;
    for (std::size_t i = 0; i < count; ++i) {
        TraceRecord r;
        r.kind = rng.bernoulli(0.5) ? RecordKind::Reading
                                    : RecordKind(rng.uniformInt(2, 9));
        ns += rng.uniformInt(0, 8'000'000);
        r.time = SimTime::fromNs(ns);
        switch (r.kind) {
          case RecordKind::Reading:
            r.reading.time = r.time;
            for (std::uint64_t &v : r.reading.totals)
                v = rng.next();
            break;
          case RecordKind::KeyPress:
          case RecordKind::PopupShow:
            r.ch = char(rng.uniformInt(0, 255));
            break;
          case RecordKind::PageSwitch:
            r.page = int(rng.uniformInt(0, 255));
            break;
          case RecordKind::AppSwitch:
            r.toTarget = rng.bernoulli(0.5);
            break;
          case RecordKind::TrialBegin: {
            std::int64_t len = 0;
            if (texts == 0)
                len = std::int64_t(maxText);
            else if (texts > 1)
                len = rng.uniformInt(
                    0, rng.bernoulli(0.1) ? std::int64_t(maxText) : 24);
            ++texts;
            for (std::int64_t k = 0; k < len; ++k)
                r.text.push_back(char(rng.uniformInt(0, 255)));
            break;
          }
          case RecordKind::Fault:
            r.fault = kgsl::FaultKind(rng.uniformInt(
                std::int64_t(kgsl::FaultKind::TransientError),
                std::int64_t(kgsl::FaultKind::DeviceReset)));
            r.faultDetail = rng.next();
            break;
          case RecordKind::Backspace:
          case RecordKind::TrialEnd:
            break;
        }
        out.push_back(std::move(r));
    }
    return out;
}

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.kind == b.kind && a.time == b.time &&
           a.reading.time == b.reading.time &&
           a.reading.totals == b.reading.totals && a.ch == b.ch &&
           a.page == b.page && a.toTarget == b.toTarget &&
           a.text == b.text && a.fault == b.fault &&
           a.faultDetail == b.faultDetail;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

void
writeStream(const std::string &path,
            const std::vector<TraceRecord> &recs)
{
    TraceWriter w;
    ASSERT_EQ(w.open(path, testHeader()), TraceError::None);
    for (const TraceRecord &r : recs)
        ASSERT_EQ(w.write(r), TraceError::None);
    ASSERT_EQ(w.close(), TraceError::None);
    EXPECT_EQ(w.recordCount(), recs.size());
}

/** What @p reader yields from an open file, up to its end or error. */
template <typename Reader>
TraceError
readRest(Reader &reader, std::vector<TraceRecord> &out)
{
    TraceRecord rec;
    bool eof = false;
    for (;;) {
        const TraceError err = reader.next(rec, eof);
        if (err != TraceError::None || eof)
            return err;
        out.push_back(rec);
    }
}

void
expectSameRecords(const std::vector<TraceRecord> &got,
                  const std::vector<TraceRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(sameRecord(got[i], want[i])) << "record " << i;
}

TEST(TraceCodecTest, RandomStreamsMatchTheReference)
{
    setVerbose(false);
    const std::string path = ::testing::TempDir() + "codec_ref." +
                             std::to_string(::getpid()) + ".gpct";
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        const std::vector<TraceRecord> recs =
            randomStream(seed, 2000, ByteWriter::kMaxStr16);

        // Byte-identical to the reference's frames after the header.
        writeStream(path, recs);
        std::vector<std::uint8_t> want = encodeHeader(testHeader());
        std::size_t longest = 0;
        for (const TraceRecord &r : recs) {
            const std::vector<std::uint8_t> frame = ref::encodeRecord(r);
            ASSERT_FALSE(frame.empty());
            longest = std::max(longest, frame.size());
            want.insert(want.end(), frame.begin(), frame.end());
        }
        EXPECT_GT(longest, kTraceBlockBytes); // a frame exceeds a block
        EXPECT_GT(want.size(), 4 * kTraceBlockBytes);
        ASSERT_EQ(slurp(path), want);

        // Both readers decode the records that were written.
        TraceReader reader;
        ASSERT_EQ(reader.open(path), TraceError::None);
        std::vector<TraceRecord> got;
        EXPECT_EQ(readRest(reader, got), TraceError::None);
        expectSameRecords(got, recs);

        ref::TraceReader oldReader;
        ASSERT_EQ(oldReader.open(path), TraceError::None);
        got.clear();
        EXPECT_EQ(readRest(oldReader, got), TraceError::None);
        expectSameRecords(got, recs);
    }
    std::remove(path.c_str());
}

/**
 * ends[i]: the file offset just past frame i of @p recs as the
 * reference frames them; ends[0] is the end of the header.
 */
std::vector<std::size_t>
frameEnds(const std::vector<TraceRecord> &recs)
{
    std::vector<std::size_t> ends{encodeHeader(testHeader()).size()};
    for (const TraceRecord &r : recs)
        ends.push_back(ends.back() + ref::encodeRecord(r).size());
    return ends;
}

/**
 * Cut @p recs, written to @p path, at every offset in @p cuts (taken
 * from the largest down, each by shrinking the file): a cut at a frame
 * end reads to a clean EOF, a cut inside a frame is TruncatedRecord,
 * and either way exactly the frames before the cut are read back.
 */
void
expectCutsReadThePrefix(const std::string &path,
                        const std::vector<TraceRecord> &recs,
                        std::vector<std::size_t> cuts)
{
    writeStream(path, recs);
    const std::vector<std::size_t> ends = frameEnds(recs);
    ASSERT_EQ(std::filesystem::file_size(path), ends.back());

    std::sort(cuts.rbegin(), cuts.rend());
    for (const std::size_t cut : cuts) {
        ASSERT_GE(cut, ends.front());
        ASSERT_LE(cut, ends.back());
        std::filesystem::resize_file(path, cut);
        const auto past =
            std::upper_bound(ends.begin(), ends.end(), cut);
        const std::size_t whole = std::size_t(past - ends.begin()) - 1;
        const bool atEnd = ends[whole] == cut;

        TraceReader reader;
        ASSERT_EQ(reader.open(path), TraceError::None) << "cut " << cut;
        std::vector<TraceRecord> got;
        EXPECT_EQ(readRest(reader, got),
                  atEnd ? TraceError::None : TraceError::TruncatedRecord)
            << "cut " << cut;
        ASSERT_EQ(got.size(), whole) << "cut " << cut;
        for (std::size_t i = 0; i < whole; ++i)
            ASSERT_TRUE(sameRecord(got[i], recs[i]))
                << "cut " << cut << ", record " << i;
    }
}

TEST(TraceCodecTest, CutsNearFrameAndBlockEdgesReadTheIntactPrefix)
{
    setVerbose(false);
    const std::string path = ::testing::TempDir() + "codec_cut." +
                             std::to_string(::getpid()) + ".gpct";
    // Short texts keep every frame small, so cutting at every offset
    // of a few of them stays cheap; 1,400 records fill more than a
    // block.
    const std::vector<TraceRecord> recs = randomStream(11, 1400, 400);
    const std::vector<std::size_t> ends = frameEnds(recs);
    ASSERT_GT(ends.back(), kTraceBlockBytes + 16 * 1024);

    std::vector<std::size_t> cuts;
    // Every offset inside the last three frames, and their ends.
    for (std::size_t c = ends[recs.size() - 3]; c <= ends.back(); ++c)
        cuts.push_back(c);
    // Every offset across the first refill: from the start of the
    // frame before the one holding the block's last byte to the end
    // of the frame after it.
    const std::size_t k = std::size_t(
        std::upper_bound(ends.begin(), ends.end(), kTraceBlockBytes - 1) -
        ends.begin());
    ASSERT_GE(k, 2u);
    for (std::size_t c = ends[k - 2]; c <= ends[k + 1]; ++c)
        cuts.push_back(c);
    expectCutsReadThePrefix(path, recs, cuts);
    std::remove(path.c_str());
}

TEST(TraceCodecTest, CutsInsideAFrameLongerThanABlockAreTruncated)
{
    setVerbose(false);
    const std::string path = ::testing::TempDir() + "codec_big." +
                             std::to_string(::getpid()) + ".gpct";
    std::vector<TraceRecord> recs = randomStream(12, 40, 64);
    TraceRecord big;
    big.kind = RecordKind::TrialBegin;
    big.time = recs.back().time;
    big.text = std::string(ByteWriter::kMaxStr16, 'x');
    recs.push_back(big);
    TraceRecord tail;
    tail.kind = RecordKind::TrialEnd;
    tail.time = big.time;
    recs.push_back(tail);

    const std::vector<std::size_t> ends = frameEnds(recs);
    const std::size_t bigBegin = ends[recs.size() - 2];
    const std::size_t bigEnd = ends[recs.size() - 1];
    ASSERT_GT(bigEnd - bigBegin, kTraceBlockBytes);
    // Each side of both of its edges and of the first block's end,
    // then every 61st byte in between: the frame must grow the block.
    std::vector<std::size_t> cuts;
    for (std::size_t edge : {bigBegin, kTraceBlockBytes, bigEnd})
        for (std::size_t c = edge - 9; c <= edge + 9; ++c)
            cuts.push_back(std::min(c, ends.back()));
    for (std::size_t c = bigBegin; c < bigEnd; c += 61)
        cuts.push_back(c);
    cuts.push_back(ends.back());
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    expectCutsReadThePrefix(path, recs, cuts);
    std::remove(path.c_str());
}

} // namespace
} // namespace gpusc::trace
