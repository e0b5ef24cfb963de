/**
 * @file
 * The reference the trace codec tests compare the block codec against.
 *
 * These are encodeRecord and TraceReader::open/next as they were
 * before frames were encoded into, and parsed out of, one reused
 * block: encodeRecord builds every frame in fresh vectors, and next()
 * takes three freads per record into a vector of its own. Keep them
 * boring — the bytes they write and the records they read ARE the
 * contract, so the code stays as it was rather than getting faster.
 * One difference: a PageSwitch page outside 0..255 still narrows here
 * (the block codec refuses it), so compare only pages in range.
 */

#ifndef GPUSC_TESTS_TRACE_CODEC_REFERENCE_H
#define GPUSC_TESTS_TRACE_CODEC_REFERENCE_H

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "trace/trace_format.h"

namespace gpusc::trace::ref {

/** Serialise one record frame (kind through CRC); empty if the
 *  TrialBegin text does not fit its u16 length field. */
inline std::vector<std::uint8_t>
encodeRecord(const TraceRecord &r)
{
    ByteWriter payload;
    payload.i64(r.time.ns());
    switch (r.kind) {
      case RecordKind::Reading:
        for (std::uint64_t v : r.reading.totals)
            payload.u64(v);
        break;
      case RecordKind::KeyPress:
      case RecordKind::PopupShow:
        payload.u8(std::uint8_t(r.ch));
        break;
      case RecordKind::PageSwitch:
        payload.u8(std::uint8_t(r.page));
        break;
      case RecordKind::AppSwitch:
        payload.u8(r.toTarget ? 1 : 0);
        break;
      case RecordKind::TrialBegin:
        payload.str16(r.text);
        break;
      case RecordKind::Fault:
        payload.u8(std::uint8_t(r.fault));
        payload.u64(r.faultDetail);
        break;
      case RecordKind::Backspace:
      case RecordKind::TrialEnd:
        break;
    }
    if (!payload.ok())
        return {};

    ByteWriter out;
    out.u8(std::uint8_t(r.kind));
    out.u32(std::uint32_t(payload.size()));
    out.raw(payload.bytes().data(), payload.size());
    // CRC covers the frame prefix too, so a corrupted length or kind
    // byte is caught as well.
    const std::uint32_t crc =
        crc32(payload.bytes(),
              crc32(out.bytes().data(), 5 /* kind + length */));
    out.u32(crc);
    return out.take();
}

/** TraceReader's open/next: a prefix, a payload and a CRC fread per
 *  record. */
class TraceReader
{
  public:
    TraceReader() = default;
    ~TraceReader() { close(); }

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    TraceError
    open(const std::string &path)
    {
        close();
        error_ = TraceError::None;
        records_ = 0;
        file_ = std::fopen(path.c_str(), "rb");
        if (!file_)
            return error_ = TraceError::IoOpen;

        std::uint8_t prefix[8];
        if (std::fread(prefix, 1, sizeof(prefix), file_) !=
            sizeof(prefix)) {
            close();
            return error_ = TraceError::TruncatedHeader;
        }
        ByteReader pr(prefix, sizeof(prefix));
        if (pr.u32() != kTraceMagic) {
            close();
            return error_ = TraceError::BadMagic;
        }
        const std::uint16_t version = pr.u16();
        if (version < kTraceMinVersion || version > kTraceVersion) {
            close();
            return error_ = TraceError::BadVersion;
        }
        const std::uint16_t payloadLen = pr.u16();

        std::vector<std::uint8_t> block(sizeof(prefix) + payloadLen + 4);
        std::memcpy(block.data(), prefix, sizeof(prefix));
        if (std::fread(block.data() + sizeof(prefix), 1, payloadLen + 4u,
                       file_) != payloadLen + 4u) {
            close();
            return error_ = TraceError::TruncatedHeader;
        }
        ByteReader r(block);
        const TraceError err = decodeHeader(r, header_);
        if (err != TraceError::None) {
            close();
            return error_ = err;
        }
        return TraceError::None;
    }

    const TraceHeader &header() const { return header_; }

    TraceError
    next(TraceRecord &out, bool &eof)
    {
        eof = false;
        if (!file_)
            return error_ != TraceError::None ? error_
                                              : TraceError::NotOpen;

        std::uint8_t frame[5];
        const std::size_t got =
            std::fread(frame, 1, sizeof(frame), file_);
        if (got == 0 && std::feof(file_)) {
            eof = true;
            return TraceError::None;
        }
        if (got != sizeof(frame)) {
            close();
            return error_ = TraceError::TruncatedRecord;
        }
        ByteReader fr(frame, sizeof(frame));
        const std::uint8_t kind = fr.u8();
        const std::uint32_t payloadLen = fr.u32();
        if (payloadLen > kMaxRecordPayload) {
            close();
            return error_ = TraceError::BadRecordPayload;
        }

        std::vector<std::uint8_t> payload(payloadLen);
        if (payloadLen > 0 &&
            std::fread(payload.data(), 1, payloadLen, file_) !=
                payloadLen) {
            close();
            return error_ = TraceError::TruncatedRecord;
        }
        std::uint8_t crcBytes[4];
        if (std::fread(crcBytes, 1, sizeof(crcBytes), file_) !=
            sizeof(crcBytes)) {
            close();
            return error_ = TraceError::TruncatedRecord;
        }
        ByteReader cr(crcBytes, sizeof(crcBytes));
        const std::uint32_t storedCrc = cr.u32();
        const std::uint32_t crc =
            crc32(payload, crc32(frame, sizeof(frame)));
        if (crc != storedCrc) {
            close();
            return error_ = TraceError::RecordCrcMismatch;
        }

        const TraceError err = decodePayload(
            kind, payload.data(), payload.size(), out, header_.version);
        if (err != TraceError::None) {
            close();
            return error_ = err;
        }
        ++records_;
        return TraceError::None;
    }

    void
    close()
    {
        if (file_) {
            std::fclose(file_);
            file_ = nullptr;
        }
    }

    std::uint64_t recordCount() const { return records_; }

  private:
    /** Upper bound on a sane record payload; a corrupted length byte
     *  must not trigger a multi-gigabyte allocation. */
    static constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

    std::FILE *file_ = nullptr;
    TraceHeader header_{};
    std::uint64_t records_ = 0;
    TraceError error_ = TraceError::None;
};

} // namespace gpusc::trace::ref

#endif // GPUSC_TESTS_TRACE_CODEC_REFERENCE_H
