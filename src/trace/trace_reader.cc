#include "trace/trace_reader.h"

#include "util/logging.h"

namespace gpusc::trace {

namespace {

/** Upper bound on a sane record payload; a corrupted length byte
 *  must not trigger a multi-gigabyte allocation. The largest real
 *  record (TrialBegin) is bounded by the 64 kB string prefix. */
constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

} // namespace

TraceReader::~TraceReader()
{
    close();
}

TraceError
TraceReader::open(const std::string &path)
{
    close();
    error_ = TraceError::None;
    records_ = 0;
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return error_ = TraceError::IoOpen;
    // The block is the buffer: each fread goes straight to the file.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    if (block_.size() < kTraceBlockBytes)
        block_.resize(kTraceBlockBytes);

    // Fixed prefix: magic + version + payload length.
    constexpr std::size_t kPrefix = 8;
    if (fill(kPrefix) < kPrefix)
        return fail(TraceError::TruncatedHeader);
    // Validate magic + version before trusting the payload length:
    // a non-trace file must report BadMagic, not a bogus truncation.
    ByteReader pr(block_.data() + pos_, kPrefix);
    if (pr.u32() != kTraceMagic)
        return fail(TraceError::BadMagic);
    const std::uint16_t version = pr.u16();
    if (version < kTraceMinVersion || version > kTraceVersion)
        return fail(TraceError::BadVersion);
    const std::size_t headerLen = kPrefix + pr.u16() + 4;
    if (fill(headerLen) < headerLen)
        return fail(TraceError::TruncatedHeader);
    ByteReader r(block_.data() + pos_, headerLen);
    const TraceError err = decodeHeader(r, header_);
    if (err != TraceError::None)
        return fail(err);
    pos_ += headerLen;
    return TraceError::None;
}

TraceError
TraceReader::next(TraceRecord &out, bool &eof)
{
    eof = false;
    if (!file_)
        return error_ != TraceError::None ? error_
                                          : TraceError::NotOpen;

    const std::size_t got = fill(kRecordPrefixBytes);
    if (got == 0 && std::feof(file_)) {
        eof = true;
        return TraceError::None;
    }
    if (got < kRecordPrefixBytes)
        return fail(TraceError::TruncatedRecord);
    ByteReader fr(block_.data() + pos_, kRecordPrefixBytes);
    const std::uint8_t kind = fr.u8();
    const std::uint32_t payloadLen = fr.u32();
    if (payloadLen > kMaxRecordPayload)
        return fail(TraceError::BadRecordPayload);

    const std::size_t body = kRecordPrefixBytes + payloadLen;
    const std::size_t frameLen = body + kRecordCrcBytes;
    if (fill(frameLen) < frameLen)
        return fail(TraceError::TruncatedRecord);
    const std::uint8_t *frame = block_.data() + pos_;
    ByteReader cr(frame + body, kRecordCrcBytes);
    if (crc32(frame, body) != cr.u32())
        return fail(TraceError::RecordCrcMismatch);

    const TraceError err =
        decodePayload(kind, frame + kRecordPrefixBytes, payloadLen, out,
                      header_.version);
    if (err != TraceError::None)
        return fail(err);
    pos_ += frameLen;
    ++records_;
    return TraceError::None;
}

std::size_t
TraceReader::fill(std::size_t n)
{
    if (end_ - pos_ >= n)
        return end_ - pos_;
    end_ -= pos_;
    std::memmove(block_.data(), block_.data() + pos_, end_);
    pos_ = 0;
    if (block_.size() < n)
        block_.resize(n);
    end_ += std::fread(block_.data() + end_, 1, block_.size() - end_,
                       file_);
    return end_;
}

TraceError
TraceReader::fail(TraceError err)
{
    close();
    return error_ = err;
}

void
TraceReader::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    pos_ = end_ = 0;
}

TraceError
TraceReader::verifyFile(const std::string &path,
                        std::uint64_t *recordsOut,
                        TraceHeader *headerOut,
                        std::vector<TraceRecord> *faultsOut)
{
    TraceReader reader;
    TraceError err = reader.open(path);
    if (err != TraceError::None)
        return err;
    if (headerOut)
        *headerOut = reader.header();
    TraceRecord rec;
    bool eof = false;
    while (!eof) {
        err = reader.next(rec, eof);
        if (err != TraceError::None)
            break;
        if (!eof && faultsOut && rec.kind == RecordKind::Fault)
            faultsOut->push_back(rec);
    }
    if (recordsOut)
        *recordsOut = reader.recordCount();
    return err;
}

} // namespace gpusc::trace
