/** @file Unit tests for the little-endian byte codec and CRC-32. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/binary_io.h"

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

TEST(BinaryIoTest, RawOfNothingIsANoOp)
{
    ByteWriter w;
    w.raw(nullptr, 0);
    EXPECT_EQ(w.size(), 0u);
    w.u8(7);
    w.raw(nullptr, 0);
    EXPECT_EQ(w.bytes(), std::vector<std::uint8_t>{7});
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
