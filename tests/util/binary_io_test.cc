/** @file Unit tests for the little-endian byte codec and CRC-32. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/binary_io.h"
#include "util/rng.h"

namespace gpusc {
namespace {

TEST(BinaryIoTest, EveryWidthRoundTrips)
{
    ByteWriter w;
    w.u8(0xA5);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(std::numeric_limits<std::int32_t>::min());
    w.i64(-1234567890123456789ll);
    w.f32(-1.5f);
    w.f64(3.141592653589793);
    w.str16("hello");
    w.str16("");
    EXPECT_EQ(w.size(), 1u + 2 + 4 + 8 + 4 + 8 + 4 + 8 + (2 + 5) + 2);

    const std::vector<std::uint8_t> bytes = w.take();
    ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 0xA5);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i32(), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(r.i64(), -1234567890123456789ll);
    EXPECT_EQ(r.f32(), -1.5f);
    EXPECT_EQ(r.f64(), 3.141592653589793);
    EXPECT_EQ(r.str16(), "hello");
    EXPECT_EQ(r.str16(), "");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(BinaryIoTest, Str16FailsClosedPastItsLengthField)
{
    ByteWriter w;
    const std::string longest(ByteWriter::kMaxStr16, 'a');
    w.str16(longest);
    EXPECT_TRUE(w.ok());
    EXPECT_EQ(w.size(), 2u + longest.size());
    // One byte more cannot be framed: nothing is written, ok() drops.
    w.str16(std::string(ByteWriter::kMaxStr16 + 1, 'b'));
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(w.size(), 2u + longest.size());
    w.str16("after"); // the failure is sticky
    EXPECT_FALSE(w.ok());

    const std::vector<std::uint8_t> bytes = w.take();
    ByteReader r(bytes);
    EXPECT_EQ(r.str16(), longest);
    EXPECT_EQ(r.str16(), "after");
    EXPECT_TRUE(r.atEnd());
}

TEST(BinaryIoTest, RawOfNothingIsANoOp)
{
    ByteWriter w;
    w.raw(nullptr, 0);
    EXPECT_EQ(w.size(), 0u);
    w.u8(7);
    w.raw(nullptr, 0);
    EXPECT_EQ(w.take(), std::vector<std::uint8_t>{7});
}

TEST(BinaryIoTest, ShortBufferFailureIsSticky)
{
    const std::vector<std::uint8_t> bytes = {1, 2, 3};
    ByteReader r(bytes);
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_FALSE(r.ok());
    // Enough bytes remain for these, but the failure is sticky: every
    // later read returns zero and consumes nothing.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.u16(), 0u);
    EXPECT_EQ(r.str16(), "");
    std::uint8_t out[2] = {0xFF, 0xFF};
    r.raw(out, sizeof out);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 0u);
    EXPECT_EQ(r.pos(), 0u);
    EXPECT_FALSE(r.ok());
}

/** Bit-at-a-time CRC-32 over the same reflected IEEE polynomial. */
std::uint32_t
bytewiseCrc32(const std::uint8_t *data, std::size_t size,
              std::uint32_t seed)
{
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

TEST(BinaryIoTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset)
{
    // Lengths cover the sliced 8-byte loop with every tail length;
    // offsets cover every alignment of the start.
    Rng rng(0xC3C3);
    std::vector<std::uint8_t> buf(300 + 8);
    for (std::uint8_t &b : buf)
        b = std::uint8_t(rng.next());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 300; ++len) {
            const std::uint8_t *p = buf.data() + offset;
            for (const std::uint32_t seed :
                 {0u, std::uint32_t(rng.next())})
                ASSERT_EQ(crc32(p, len, seed), bytewiseCrc32(p, len, seed))
                    << "offset " << offset << ", length " << len
                    << ", seed " << seed;
        }
    }
}

TEST(BinaryIoTest, Crc32MatchesTheIeeeCheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(check),
                    std::strlen(check)),
              0xCBF43926u);
}

TEST(BinaryIoTest, Crc32ChainsThroughSeed)
{
    std::vector<std::uint8_t> data(97);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 31 + 7);
    const std::uint32_t whole = crc32(data);
    for (const std::size_t split : {0u, 1u, 8u, 50u, 96u, 97u}) {
        const std::uint32_t head = crc32(data.data(), split);
        EXPECT_EQ(crc32(data.data() + split, data.size() - split, head),
                  whole)
            << "split " << split;
    }
}

} // namespace
} // namespace gpusc
