#include "util/binary_io.h"

#include <array>

namespace gpusc {

namespace {

/** t[k][b]: CRC register after byte b followed by k zero bytes. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    return t;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    // Slicing-by-8: eight table lookups fold eight bytes at once. The
    // words are assembled from bytes, so any alignment and host byte
    // order give the bytewise result.
    static const CrcTables t = makeCrcTables();
    std::uint32_t c = seed ^ 0xffffffffu;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        const std::uint8_t *p = data + i;
        const std::uint32_t lo =
            c ^ (std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
                 std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; i < size; ++i)
        c = t[0][(c ^ data[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::uint32_t
crc32(std::span<const std::uint8_t> data, std::uint32_t seed)
{
    return crc32(data.data(), data.size(), seed);
}

void
ByteWriter::str16(const std::string &s)
{
    if (s.size() > kMaxStr16) {
        ok_ = false;
        return;
    }
    u16(std::uint16_t(s.size()));
    raw(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

void
ByteWriter::reserve(std::size_t bytes)
{
    if (buf_.size() < bytes)
        buf_.resize(bytes);
}

void
ByteWriter::grow(std::size_t n)
{
    reserve(std::max(2 * buf_.size(), size_ + n));
}

std::vector<std::uint8_t>
ByteWriter::take()
{
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
}

} // namespace gpusc
