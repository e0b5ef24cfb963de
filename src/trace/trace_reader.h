/**
 * @file
 * Streaming reader for .gpct trace files.
 *
 * The reader validates the header (magic, version, CRC) on open and
 * every record frame's CRC as it streams, so any flipped byte in a
 * trace surfaces as a typed TraceError — truncation, corruption and
 * unknown record kinds are all hard failures, never crashes. It
 * refills one reused 64 KiB block (kTraceBlockBytes) with one fread
 * at a time and checks and decodes each frame in place, so a steady
 * stream of readings allocates nothing. A frame longer than the
 * block grows it, after its length has passed the sanity bound.
 */

#ifndef GPUSC_TRACE_TRACE_READER_H
#define GPUSC_TRACE_TRACE_READER_H

#include <cstdio>
#include <string>

#include "trace/trace_format.h"

namespace gpusc::trace {

/** Streams validated records out of a trace file. */
class TraceReader
{
  public:
    TraceReader() = default;
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Open @p path and parse + validate the header. */
    TraceError open(const std::string &path);

    const TraceHeader &header() const { return header_; }

    /**
     * Read the next record. Sets @p eof (with None) at a clean end
     * of file; any mid-file failure is a typed error and poisons the
     * reader (further next() calls return the same error).
     */
    TraceError next(TraceRecord &out, bool &eof);

    void close();

    bool isOpen() const { return file_ != nullptr; }
    std::uint64_t recordCount() const { return records_; }

    /**
     * Scan an entire file, validating every frame.
     * @return None iff the file is fully intact; optionally reports
     * the record count, parsed header and the fault-event records
     * (v2+) encountered along the way.
     */
    static TraceError
    verifyFile(const std::string &path,
               std::uint64_t *recordsOut = nullptr,
               TraceHeader *headerOut = nullptr,
               std::vector<TraceRecord> *faultsOut = nullptr);

  private:
    /**
     * Make @p n unread bytes available at block_[pos_] if the file
     * still holds them: slide the unread tail to the front, grow the
     * block if it is shorter than @p n, then top it up with one
     * fread. @return the unread bytes now buffered (short at EOF).
     */
    std::size_t fill(std::size_t n);
    /** Close and poison the reader with @p err. */
    TraceError fail(TraceError err);

    std::FILE *file_ = nullptr;
    /** Bytes read from the file; [pos_, end_) are not parsed yet. */
    std::vector<std::uint8_t> block_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    TraceHeader header_{};
    std::uint64_t records_ = 0;
    TraceError error_ = TraceError::None;
};

} // namespace gpusc::trace

#endif // GPUSC_TRACE_TRACE_READER_H
