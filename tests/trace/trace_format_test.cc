/** @file Trace file format tests: round trip + corruption. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "trace/trace_reader.h"
#include "trace/trace_writer.h"
#include "util/logging.h"

namespace gpusc::trace {
namespace {

TraceHeader
testHeader()
{
    TraceHeader h;
    h.deviceKey = "pixel/gboard/chrome";
    h.device.keyboard = "go";
    h.device.noiseSigma = 0.25;
    h.samplingInterval = SimTime::fromMs(8);
    h.seed = 42;
    return h;
}

attack::Reading
testReading(std::int64_t ms, std::uint64_t base)
{
    attack::Reading r;
    r.time = SimTime::fromMs(ms);
    for (std::size_t i = 0; i < r.totals.size(); ++i)
        r.totals[i] = base + i * 17;
    return r;
}

/** Write a small but fully representative trace; returns its path. */
std::string
writeSampleTrace(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    TraceWriter w;
    EXPECT_EQ(w.open(path, testHeader()), TraceError::None);
    EXPECT_EQ(w.writeTrialBegin(SimTime::fromMs(1), "secret"),
              TraceError::None);
    EXPECT_EQ(w.writeReading(testReading(8, 1000)), TraceError::None);
    EXPECT_EQ(w.writeKeyPress(SimTime::fromMs(10), 's'),
              TraceError::None);
    EXPECT_EQ(w.writePopupShow(SimTime::fromMs(11), 's'),
              TraceError::None);
    EXPECT_EQ(w.writeReading(testReading(16, 2000)), TraceError::None);
    EXPECT_EQ(w.writeBackspace(SimTime::fromMs(20)), TraceError::None);
    EXPECT_EQ(w.writePageSwitch(SimTime::fromMs(24), 1),
              TraceError::None);
    EXPECT_EQ(w.writeAppSwitch(SimTime::fromMs(30), false),
              TraceError::None);
    EXPECT_EQ(w.writeTrialEnd(SimTime::fromMs(40)), TraceError::None);
    EXPECT_EQ(w.close(), TraceError::None);
    return path;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

void
dump(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            long(bytes.size()));
}

TEST(TraceFormatTest, RoundTripIsBitExact)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("roundtrip.gpct");

    TraceReader r;
    ASSERT_EQ(r.open(path), TraceError::None);
    const TraceHeader h = r.header();
    EXPECT_EQ(h.deviceKey, "pixel/gboard/chrome");
    EXPECT_EQ(h.device.keyboard, "go");
    EXPECT_DOUBLE_EQ(h.device.noiseSigma, 0.25);
    EXPECT_EQ(h.samplingInterval, SimTime::fromMs(8));
    EXPECT_EQ(h.seed, 42u);

    std::vector<TraceRecord> recs;
    TraceRecord rec;
    bool eof = false;
    while (r.next(rec, eof) == TraceError::None && !eof)
        recs.push_back(rec);
    EXPECT_TRUE(eof);
    ASSERT_EQ(recs.size(), 9u);

    EXPECT_EQ(recs[0].kind, RecordKind::TrialBegin);
    EXPECT_EQ(recs[0].text, "secret");
    EXPECT_EQ(recs[0].time, SimTime::fromMs(1));

    EXPECT_EQ(recs[1].kind, RecordKind::Reading);
    const attack::Reading want = testReading(8, 1000);
    EXPECT_EQ(recs[1].reading.time, want.time);
    EXPECT_EQ(recs[1].reading.totals, want.totals);

    EXPECT_EQ(recs[2].kind, RecordKind::KeyPress);
    EXPECT_EQ(recs[2].ch, 's');
    EXPECT_EQ(recs[3].kind, RecordKind::PopupShow);
    EXPECT_EQ(recs[3].ch, 's');
    EXPECT_EQ(recs[4].kind, RecordKind::Reading);
    EXPECT_EQ(recs[5].kind, RecordKind::Backspace);
    EXPECT_EQ(recs[6].kind, RecordKind::PageSwitch);
    EXPECT_EQ(recs[6].page, 1);
    EXPECT_EQ(recs[7].kind, RecordKind::AppSwitch);
    EXPECT_FALSE(recs[7].toTarget);
    EXPECT_EQ(recs[8].kind, RecordKind::TrialEnd);
    EXPECT_EQ(recs[8].time, SimTime::fromMs(40));

    std::remove(path.c_str());
}

TEST(TraceFormatTest, VerifyFileAcceptsIntactTrace)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("verify.gpct");
    std::uint64_t records = 0;
    TraceHeader h;
    EXPECT_EQ(TraceReader::verifyFile(path, &records, &h),
              TraceError::None);
    EXPECT_EQ(records, 9u);
    EXPECT_EQ(h.deviceKey, "pixel/gboard/chrome");
    std::remove(path.c_str());
}

TEST(TraceFormatTest, MissingFileIsIoOpen)
{
    setVerbose(false);
    TraceReader r;
    EXPECT_EQ(r.open("/nonexistent/trace.gpct"), TraceError::IoOpen);
    EXPECT_EQ(TraceReader::verifyFile("/nonexistent/trace.gpct"),
              TraceError::IoOpen);
}

TEST(TraceFormatTest, BadMagicIsRejected)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("badmagic.gpct");
    std::vector<std::uint8_t> bytes = slurp(path);
    bytes[0] ^= 0xff;
    dump(path, bytes);
    EXPECT_EQ(TraceReader::verifyFile(path), TraceError::BadMagic);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, UnknownVersionIsRejected)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("badversion.gpct");
    std::vector<std::uint8_t> bytes = slurp(path);
    bytes[4] = 0x7f; // version low byte, after the u32 magic
    dump(path, bytes);
    EXPECT_EQ(TraceReader::verifyFile(path), TraceError::BadVersion);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, TruncationIsDetected)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("trunc.gpct");
    const std::vector<std::uint8_t> bytes = slurp(path);
    // Chop off the last 3 bytes: the final record's CRC is torn.
    dump(path, {bytes.begin(), bytes.end() - 3});
    EXPECT_EQ(TraceReader::verifyFile(path),
              TraceError::TruncatedRecord);

    // Chop mid-header as well.
    dump(path, {bytes.begin(), bytes.begin() + 6});
    const TraceError e = TraceReader::verifyFile(path);
    EXPECT_TRUE(e == TraceError::TruncatedHeader ||
                e == TraceError::IoRead)
        << traceErrorString(e);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, UnknownRecordKindIsRejected)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("badkind.gpct");
    // Append a validly-framed record with an unassigned kind byte.
    std::vector<std::uint8_t> bytes = slurp(path);
    ByteWriter frame;
    frame.u8(0x7f);
    frame.u32(0);
    frame.u32(crc32(frame.bytes()));
    bytes.insert(bytes.end(), frame.bytes().begin(),
                 frame.bytes().end());
    dump(path, bytes);
    EXPECT_EQ(TraceReader::verifyFile(path),
              TraceError::BadRecordKind);
    std::remove(path.c_str());
}

/**
 * The acceptance criterion: corrupting ANY single byte of the file
 * must surface as a typed error (or, for the rare CRC-collision-free
 * cosmetic bytes, parse cleanly) — never crash, never hang.
 */
TEST(TraceFormatTest, EveryFlippedByteIsDetectedOrHarmless)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("fuzz.gpct");
    const std::vector<std::uint8_t> clean = slurp(path);
    ASSERT_FALSE(clean.empty());
    int detected = 0;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        std::vector<std::uint8_t> bad = clean;
        bad[i] ^= 0x5a;
        dump(path, bad);
        if (TraceReader::verifyFile(path) != TraceError::None)
            ++detected;
    }
    // Every byte of this file is load-bearing: magic, version,
    // lengths, payloads and CRCs are all covered by a check.
    EXPECT_EQ(detected, int(clean.size()));
    std::remove(path.c_str());
}

TEST(TraceFormatTest, FaultRecordsRoundTripAndVerifyCollectsThem)
{
    setVerbose(false);
    const std::string path = ::testing::TempDir() + "faults.gpct";
    TraceWriter w;
    ASSERT_EQ(w.open(path, testHeader()), TraceError::None);
    ASSERT_EQ(w.writeReading(testReading(8, 1000)), TraceError::None);
    ASSERT_EQ(w.writeFault(SimTime::fromMs(9),
                           kgsl::FaultKind::PowerCollapse, 3),
              TraceError::None);
    ASSERT_EQ(w.writeFault(SimTime::fromMs(12),
                           kgsl::FaultKind::DeviceReset, 1),
              TraceError::None);
    ASSERT_EQ(w.writeReading(testReading(16, 2000)), TraceError::None);
    ASSERT_EQ(w.close(), TraceError::None);

    TraceReader r;
    ASSERT_EQ(r.open(path), TraceError::None);
    EXPECT_EQ(r.header().version, kTraceVersion);
    std::vector<TraceRecord> recs;
    TraceRecord rec;
    bool eof = false;
    while (r.next(rec, eof) == TraceError::None && !eof)
        recs.push_back(rec);
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[1].kind, RecordKind::Fault);
    EXPECT_EQ(recs[1].time, SimTime::fromMs(9));
    EXPECT_EQ(recs[1].fault, kgsl::FaultKind::PowerCollapse);
    EXPECT_EQ(recs[1].faultDetail, 3u);
    EXPECT_EQ(recs[2].fault, kgsl::FaultKind::DeviceReset);
    EXPECT_EQ(recs[2].faultDetail, 1u);

    std::vector<TraceRecord> faults;
    EXPECT_EQ(TraceReader::verifyFile(path, nullptr, nullptr, &faults),
              TraceError::None);
    ASSERT_EQ(faults.size(), 2u);
    EXPECT_EQ(faults[0].fault, kgsl::FaultKind::PowerCollapse);
    EXPECT_EQ(faults[1].fault, kgsl::FaultKind::DeviceReset);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, VersionOneFilesRemainReadable)
{
    setVerbose(false);
    // The v1 layout is the v2 layout minus the Fault kind, so a
    // faultless v2 file with the version field rewritten IS a valid
    // v1 file (the header CRC covers only the payload).
    const std::string path = writeSampleTrace("v1compat.gpct");
    std::vector<std::uint8_t> bytes = slurp(path);
    bytes[4] = 0x01; // version low byte, after the u32 magic
    dump(path, bytes);

    TraceReader r;
    ASSERT_EQ(r.open(path), TraceError::None);
    EXPECT_EQ(r.header().version, 1);
    EXPECT_EQ(r.header().deviceKey, "pixel/gboard/chrome");
    std::vector<TraceRecord> recs;
    TraceRecord rec;
    bool eof = false;
    while (r.next(rec, eof) == TraceError::None && !eof)
        recs.push_back(rec);
    EXPECT_TRUE(eof);
    EXPECT_EQ(recs.size(), 9u);

    std::uint64_t records = 0;
    TraceHeader h;
    EXPECT_EQ(TraceReader::verifyFile(path, &records, &h),
              TraceError::None);
    EXPECT_EQ(records, 9u);
    EXPECT_EQ(h.version, 1);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, FaultRecordInVersionOneFileIsBadKind)
{
    setVerbose(false);
    const std::string path = ::testing::TempDir() + "v1fault.gpct";
    TraceWriter w;
    ASSERT_EQ(w.open(path, testHeader()), TraceError::None);
    ASSERT_EQ(w.writeFault(SimTime::fromMs(5),
                           kgsl::FaultKind::TransientError, 4),
              TraceError::None);
    ASSERT_EQ(w.close(), TraceError::None);

    std::vector<std::uint8_t> bytes = slurp(path);
    bytes[4] = 0x01;
    dump(path, bytes);
    // Kinds are append-only per version: a v1 file must not contain
    // the v2 Fault kind.
    EXPECT_EQ(TraceReader::verifyFile(path),
              TraceError::BadRecordKind);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, OutOfRangeFaultKindByteIsBadPayload)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("badfault.gpct");
    std::vector<std::uint8_t> bytes = slurp(path);
    // Append a validly-framed Fault record whose kind byte (0) names
    // no FaultKind.
    ByteWriter frame;
    frame.u8(9); // RecordKind::Fault
    frame.u32(8 + 1 + 8);
    frame.i64(SimTime::fromMs(1).ns());
    frame.u8(0);
    frame.u64(0);
    frame.u32(crc32(frame.bytes()));
    bytes.insert(bytes.end(), frame.bytes().begin(),
                 frame.bytes().end());
    dump(path, bytes);
    EXPECT_EQ(TraceReader::verifyFile(path),
              TraceError::BadRecordPayload);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, ReaderErrorIsSticky)
{
    setVerbose(false);
    const std::string path = writeSampleTrace("sticky.gpct");
    std::vector<std::uint8_t> bytes = slurp(path);
    bytes.back() ^= 0xff; // corrupt the final record's CRC
    dump(path, bytes);

    TraceReader r;
    ASSERT_EQ(r.open(path), TraceError::None);
    TraceRecord rec;
    bool eof = false;
    TraceError e = TraceError::None;
    while ((e = r.next(rec, eof)) == TraceError::None && !eof)
        ;
    EXPECT_EQ(e, TraceError::RecordCrcMismatch);
    // Poisoned: the same error again, not a crash or bogus record.
    EXPECT_EQ(r.next(rec, eof), TraceError::RecordCrcMismatch);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, WriterWithoutOpenReportsNotOpen)
{
    setVerbose(false);
    TraceWriter w;
    EXPECT_EQ(w.writeTrialEnd(SimTime::fromMs(1)),
              TraceError::NotOpen);
    TraceReader r;
    TraceRecord rec;
    bool eof = false;
    EXPECT_EQ(r.next(rec, eof), TraceError::NotOpen);
}

/** All records of @p path, asserting a clean read to EOF. */
std::vector<TraceRecord>
readAll(const std::string &path)
{
    TraceReader r;
    EXPECT_EQ(r.open(path), TraceError::None);
    std::vector<TraceRecord> recs;
    TraceRecord rec;
    bool eof = false;
    while (r.next(rec, eof) == TraceError::None && !eof)
        recs.push_back(rec);
    EXPECT_TRUE(eof);
    return recs;
}

TEST(TraceFormatTest, TrialBeginAtTheLengthLimitRoundTrips)
{
    setVerbose(false);
    const std::string path = ::testing::TempDir() + "limit.gpct";
    const std::string longest(65535, 'x');
    TraceWriter w;
    ASSERT_EQ(w.open(path, testHeader()), TraceError::None);
    EXPECT_EQ(w.writeTrialBegin(SimTime::fromMs(1), longest),
              TraceError::None);
    EXPECT_EQ(w.writeReading(testReading(8, 1000)), TraceError::None);
    EXPECT_EQ(w.close(), TraceError::None);

    const std::vector<TraceRecord> recs = readAll(path);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].text, longest);
    EXPECT_EQ(recs[1].reading.totals, testReading(8, 1000).totals);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, OverlongTrialBeginIsRefusedAndWritesNothing)
{
    setVerbose(false);
    const std::string refused = ::testing::TempDir() + "refused.gpct";
    const std::string plain = ::testing::TempDir() + "plain.gpct";
    for (const std::string &path : {refused, plain}) {
        TraceWriter w;
        ASSERT_EQ(w.open(path, testHeader()), TraceError::None);
        EXPECT_EQ(w.writeTrialBegin(SimTime::fromMs(1), "secret"),
                  TraceError::None);
        if (path == refused) {
            EXPECT_EQ(w.writeTrialBegin(SimTime::fromMs(2),
                                        std::string(65536, 'y')),
                      TraceError::FieldTooLong);
            EXPECT_EQ(w.recordCount(), 1u);
        }
        EXPECT_EQ(w.writeReading(testReading(8, 1000)),
                  TraceError::None);
        // The refusal sticks, so a caller checking only close() sees it.
        EXPECT_EQ(w.close(), path == refused ? TraceError::FieldTooLong
                                             : TraceError::None);
    }
    // Nothing of the refused record reached the file, which verifies.
    EXPECT_EQ(slurp(refused), slurp(plain));
    std::uint64_t records = 0;
    EXPECT_EQ(TraceReader::verifyFile(refused, &records),
              TraceError::None);
    EXPECT_EQ(records, 2u);
    std::remove(refused.c_str());
    std::remove(plain.c_str());
}

TEST(TraceFormatTest, PageOutsideAByteIsRefusedAndWritesNothing)
{
    setVerbose(false);
    const std::string refused = ::testing::TempDir() + "page.gpct";
    const std::string plain = ::testing::TempDir() + "page_plain.gpct";
    for (const std::string &path : {refused, plain}) {
        TraceWriter w;
        ASSERT_EQ(w.open(path, testHeader()), TraceError::None);
        EXPECT_EQ(w.writePageSwitch(SimTime::fromMs(1), 255),
                  TraceError::None);
        if (path == refused) {
            // Narrowed to a byte, these would read back as 0 and 255.
            EXPECT_EQ(w.writePageSwitch(SimTime::fromMs(2), 256),
                      TraceError::FieldTooLong);
            EXPECT_EQ(w.writePageSwitch(SimTime::fromMs(3), -1),
                      TraceError::FieldTooLong);
            EXPECT_EQ(w.recordCount(), 1u);
        }
        EXPECT_EQ(w.writeReading(testReading(8, 1000)),
                  TraceError::None);
        EXPECT_EQ(w.close(), path == refused ? TraceError::FieldTooLong
                                             : TraceError::None);
    }
    EXPECT_EQ(slurp(refused), slurp(plain));
    std::uint64_t records = 0;
    EXPECT_EQ(TraceReader::verifyFile(refused, &records),
              TraceError::None);
    EXPECT_EQ(records, 2u);
    const std::vector<TraceRecord> recs = readAll(refused);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].kind, RecordKind::PageSwitch);
    EXPECT_EQ(recs[0].page, 255);
    std::remove(refused.c_str());
    std::remove(plain.c_str());
}

TEST(TraceFormatTest, FailedBlockWriteSurfacesAsIoWrite)
{
    setVerbose(false);
    // Every write to /dev/full fails with ENOSPC. Frames are accepted
    // into the block; the failure shows when a full block is written
    // out, and again (sticky) on close().
    TraceWriter w;
    if (w.open("/dev/full", testHeader()) != TraceError::None)
        GTEST_SKIP() << "no /dev/full";
    EXPECT_EQ(w.writeReading(testReading(8, 1000)), TraceError::None);
    TraceError err = TraceError::None;
    for (int i = 0; i < 1000 && err == TraceError::None; ++i)
        err = w.writeReading(testReading(16 + 8 * i, 2000));
    EXPECT_EQ(err, TraceError::IoWrite);
    EXPECT_EQ(w.error(), TraceError::IoWrite);
    EXPECT_EQ(w.close(), TraceError::IoWrite);

    // A short stream fails only at close().
    ASSERT_EQ(w.open("/dev/full", testHeader()), TraceError::None);
    EXPECT_EQ(w.writeReading(testReading(8, 1000)), TraceError::None);
    EXPECT_EQ(w.close(), TraceError::IoWrite);
}

TEST(TraceFormatTest, OverlongHeaderIsRefusedBeforeTheFileIsTouched)
{
    setVerbose(false);
    const std::string path = ::testing::TempDir() + "header.gpct";
    std::remove(path.c_str());
    TraceWriter w;
    TraceHeader h = testHeader();
    h.deviceKey = std::string(65536, 'k');
    EXPECT_EQ(w.open(path, h), TraceError::FieldTooLong);
    EXPECT_FALSE(w.isOpen());
    EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);
    // Strings that fit one by one but overflow the u16 payload length.
    h.deviceKey = std::string(40000, 'k');
    h.device.phone = std::string(40000, 'p');
    EXPECT_EQ(w.open(path, h), TraceError::FieldTooLong);
    EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);

    // A payload of exactly 65,535 bytes still round-trips.
    h = testHeader();
    h.deviceKey.clear();
    const std::size_t framing = 12; // magic, version, length, CRC
    const std::size_t rest = encodeHeader(h).size() - framing;
    h.deviceKey = std::string(65535 - rest, 'k');
    ASSERT_EQ(encodeHeader(h).size(), 65535 + framing);
    ASSERT_EQ(w.open(path, h), TraceError::None);
    EXPECT_EQ(w.close(), TraceError::None);
    TraceHeader back;
    EXPECT_EQ(TraceReader::verifyFile(path, nullptr, &back),
              TraceError::None);
    EXPECT_EQ(back.deviceKey, h.deviceKey);
    h.deviceKey += 'k';
    EXPECT_TRUE(encodeHeader(h).empty());
    std::remove(path.c_str());
}

TEST(TraceFormatTest, ErrorStringsAreStable)
{
    EXPECT_STREQ(traceErrorString(TraceError::None), "None");
    EXPECT_STREQ(traceErrorString(TraceError::RecordCrcMismatch),
                 "RecordCrcMismatch");
    EXPECT_STREQ(traceErrorString(TraceError::BadMagic), "BadMagic");
    EXPECT_STREQ(traceErrorString(TraceError::FieldTooLong),
                 "FieldTooLong");
}

} // namespace
} // namespace gpusc::trace
