#include "trace/trace_writer.h"

#include "util/logging.h"

namespace gpusc::trace {

TraceWriter::~TraceWriter()
{
    if (file_)
        close();
}

TraceError
TraceWriter::open(const std::string &path, const TraceHeader &h)
{
    if (file_)
        close();
    error_ = TraceError::None;
    records_ = 0;
    // Refused before the file is touched: nothing is created.
    const std::vector<std::uint8_t> hdr = encodeHeader(h);
    if (hdr.empty())
        return error_ = TraceError::FieldTooLong;
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        warn("TraceWriter: cannot open '%s' for writing",
             path.c_str());
        return error_ = TraceError::IoOpen;
    }
    // The block is the buffer: each fwrite goes straight to the file.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    // Room for a full block plus the frame that fills it, so frames
    // up to a block long never grow the storage.
    block_.rewind(0);
    block_.reserve(2 * kTraceBlockBytes);
    block_.raw(hdr.data(), hdr.size());
    return TraceError::None;
}

TraceError
TraceWriter::write(const TraceRecord &r)
{
    if (!file_)
        return TraceError::NotOpen;
    if (!encodeRecord(r, block_)) {
        // Nothing written: the file stays valid, the refusal sticks.
        if (error_ == TraceError::None)
            error_ = TraceError::FieldTooLong;
        return TraceError::FieldTooLong;
    }
    ++records_;
    return block_.size() >= kTraceBlockBytes ? flushBlock()
                                             : TraceError::None;
}

TraceError
TraceWriter::flushBlock()
{
    const std::span<const std::uint8_t> bytes = block_.bytes();
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), file_) ==
        bytes.size();
    block_.rewind(0);
    if (written)
        return TraceError::None;
    if (error_ == TraceError::None)
        error_ = TraceError::IoWrite;
    return TraceError::IoWrite;
}

TraceError
TraceWriter::writeReading(const attack::Reading &r)
{
    TraceRecord rec;
    rec.kind = RecordKind::Reading;
    rec.time = r.time;
    rec.reading = r;
    return write(rec);
}

TraceError
TraceWriter::writeKeyPress(SimTime t, char ch)
{
    TraceRecord rec;
    rec.kind = RecordKind::KeyPress;
    rec.time = t;
    rec.ch = ch;
    return write(rec);
}

TraceError
TraceWriter::writeBackspace(SimTime t)
{
    TraceRecord rec;
    rec.kind = RecordKind::Backspace;
    rec.time = t;
    return write(rec);
}

TraceError
TraceWriter::writePageSwitch(SimTime t, int page)
{
    TraceRecord rec;
    rec.kind = RecordKind::PageSwitch;
    rec.time = t;
    rec.page = page;
    return write(rec);
}

TraceError
TraceWriter::writeAppSwitch(SimTime t, bool toTarget)
{
    TraceRecord rec;
    rec.kind = RecordKind::AppSwitch;
    rec.time = t;
    rec.toTarget = toTarget;
    return write(rec);
}

TraceError
TraceWriter::writePopupShow(SimTime t, char ch)
{
    TraceRecord rec;
    rec.kind = RecordKind::PopupShow;
    rec.time = t;
    rec.ch = ch;
    return write(rec);
}

TraceError
TraceWriter::writeTrialBegin(SimTime t, const std::string &truth)
{
    TraceRecord rec;
    rec.kind = RecordKind::TrialBegin;
    rec.time = t;
    rec.text = truth;
    return write(rec);
}

TraceError
TraceWriter::writeTrialEnd(SimTime t)
{
    TraceRecord rec;
    rec.kind = RecordKind::TrialEnd;
    rec.time = t;
    return write(rec);
}

TraceError
TraceWriter::writeFault(SimTime t, kgsl::FaultKind kind,
                        std::uint64_t detail)
{
    TraceRecord rec;
    rec.kind = RecordKind::Fault;
    rec.time = t;
    rec.fault = kind;
    rec.faultDetail = detail;
    return write(rec);
}

TraceError
TraceWriter::close()
{
    if (!file_)
        return error_;
    flushBlock();
    if (std::fclose(file_) != 0 && error_ == TraceError::None)
        error_ = TraceError::IoWrite;
    file_ = nullptr;
    return error_;
}

} // namespace gpusc::trace
