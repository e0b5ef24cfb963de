/**
 * @file
 * Shared little-endian binary serialisation helpers + CRC-32.
 *
 * Every on-disk artefact of this project (signature-model stores,
 * recorded performance-counter traces) goes through these two
 * classes so framing, bounds checking and corruption detection are
 * implemented exactly once. ByteWriter appends in O(1): it tracks its
 * own length in storage that grows geometrically and is kept across
 * rewind(), so a caller can reuse one writer as an I/O block and
 * patch a length field once the bytes it covers are written.
 * ByteReader never reads out of bounds: a short or malformed buffer
 * flips a sticky failure flag and all further reads return zero
 * values, letting parsers finish cleanly and report a typed error
 * instead of crashing.
 */

#ifndef GPUSC_UTIL_BINARY_IO_H
#define GPUSC_UTIL_BINARY_IO_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace gpusc {

/** CRC-32 (IEEE 802.3, reflected) of @p data; chainable via @p seed. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t seed = 0);
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);

/** Appends fixed-width little-endian values to a byte buffer. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { pod(v); }
    void u16(std::uint16_t v) { pod(v); }
    void u32(std::uint32_t v) { pod(v); }
    void u64(std::uint64_t v) { pod(v); }
    void i32(std::int32_t v) { pod(v); }
    void i64(std::int64_t v) { pod(v); }
    void f32(float v) { pod(v); }
    void f64(double v) { pod(v); }

    /** Longest string str16 can frame. */
    static constexpr std::size_t kMaxStr16 = 0xFFFF;

    /**
     * u16 length prefix + raw bytes. A string longer than kMaxStr16
     * does not fit its prefix: nothing is written and ok() turns
     * false, so the caller can refuse the whole encoding.
     */
    void str16(const std::string &s);

    void raw(const std::uint8_t *p, std::size_t n)
    {
        // Empty appends return first, so a null @p p never reaches
        // memcpy.
        if (n == 0)
            return;
        std::memcpy(extend(n), p, n);
    }

    /** Overwrite the 4 bytes at @p at (at + 4 <= size()) with @p v,
     *  e.g. a length prefix once the bytes it covers are written. */
    void patchU32(std::size_t at, std::uint32_t v)
    {
        std::memcpy(buf_.data() + at, &v, sizeof(v));
    }

    /**
     * Drop every byte after the first @p size (no-op past size())
     * and clear the failure flag, e.g. to take back a refused frame.
     * @p size must be a size() taken while ok() held. The storage is
     * kept, so refilling it allocates nothing.
     */
    void rewind(std::size_t size)
    {
        size_ = std::min(size_, size);
        ok_ = true;
    }

    /** Grow the storage to at least @p bytes without writing any. */
    void reserve(std::size_t bytes);

    std::span<const std::uint8_t> bytes() const
    {
        return {buf_.data(), size_};
    }
    /** The bytes written; leaves the writer empty. */
    std::vector<std::uint8_t> take();
    std::size_t size() const { return size_; }

    /** False once a value did not fit its field (sticky until
     *  rewind()); the bytes are then not a valid encoding. */
    bool ok() const { return ok_; }

  private:
    template <typename T>
    void
    pod(T v)
    {
        std::memcpy(extend(sizeof(T)), &v, sizeof(T));
    }

    /** Claim @p n bytes at the end; @return where they start. */
    std::uint8_t *
    extend(std::size_t n)
    {
        if (buf_.size() - size_ < n)
            grow(n);
        std::uint8_t *at = buf_.data() + size_;
        size_ += n;
        return at;
    }

    /** Out of line: make room for @p n more bytes, at least doubling
     *  the storage. */
    void grow(std::size_t n);

    /** Storage; its size() is the capacity, size_ the bytes used. */
    std::vector<std::uint8_t> buf_;
    std::size_t size_ = 0;
    bool ok_ = true;
};

/** Bounds-checked reader over a byte span; never crashes on short
 *  input — check ok() (or use the failure flag) after parsing. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit ByteReader(const std::vector<std::uint8_t> &buf)
        : ByteReader(buf.data(), buf.size())
    {
    }

    std::uint8_t u8() { return pod<std::uint8_t>(); }
    std::uint16_t u16() { return pod<std::uint16_t>(); }
    std::uint32_t u32() { return pod<std::uint32_t>(); }
    std::uint64_t u64() { return pod<std::uint64_t>(); }
    std::int32_t i32() { return pod<std::int32_t>(); }
    std::int64_t i64() { return pod<std::int64_t>(); }
    float f32() { return pod<float>(); }
    double f64() { return pod<double>(); }

    /** Counterpart of ByteWriter::str16. */
    std::string
    str16()
    {
        const std::uint16_t n = u16();
        if (!require(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      n);
        pos_ += n;
        return s;
    }

    /** Copy @p n raw bytes out (zero-filled past the end). */
    void
    raw(std::uint8_t *out, std::size_t n)
    {
        if (!require(n)) {
            std::memset(out, 0, n);
            return;
        }
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    /** Skip @p n bytes. */
    void
    skip(std::size_t n)
    {
        if (require(n))
            pos_ += n;
    }

    bool ok() const { return ok_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    bool
    require(std::size_t n)
    {
        if (!ok_ || n > size_ - pos_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    template <typename T>
    T
    pod()
    {
        if (!require(sizeof(T)))
            return T{};
        T v;
        std::memcpy(&v, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace gpusc

#endif // GPUSC_UTIL_BINARY_IO_H
