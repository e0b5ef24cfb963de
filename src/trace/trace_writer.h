/**
 * @file
 * Streaming writer for .gpct trace files.
 *
 * The writer encodes the header and every record frame into one
 * reused block and writes it out with one fwrite once it holds
 * 64 KiB (kTraceBlockBytes) and on close(), so a steady stream of
 * records allocates nothing. Records are framed and CRC-protected
 * individually (see trace_format.h), so a crash mid-recording leaves
 * a file whose intact prefix is still fully readable — the reader
 * reports the torn tail as TruncatedRecord instead of discarding the
 * session. Such a crash loses the frames still in the block: up to
 * one block's worth.
 */

#ifndef GPUSC_TRACE_TRACE_WRITER_H
#define GPUSC_TRACE_TRACE_WRITER_H

#include <cstdio>
#include <string>

#include "trace/trace_format.h"

namespace gpusc::trace {

/** Appends header + record frames to a trace file. */
class TraceWriter
{
  public:
    TraceWriter() = default;
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /**
     * Create/truncate @p path and start the block with the header. A
     * header whose strings or payload exceed their u16 length fields
     * is refused with FieldTooLong before the file is touched.
     */
    TraceError open(const std::string &path, const TraceHeader &h);

    /**
     * Append one record frame to the block, writing the block out
     * once it is full. A value that does not fit its field (a
     * TrialBegin text over 65,535 bytes, a PageSwitch page outside
     * 0..255) is refused with FieldTooLong and nothing is written.
     * A frame accepted into the block is counted; a failed write of
     * the block surfaces as IoWrite on the write() or close() that
     * flushes it.
     */
    TraceError write(const TraceRecord &r);

    // Convenience wrappers for the common record kinds.
    TraceError writeReading(const attack::Reading &r);
    TraceError writeKeyPress(SimTime t, char ch);
    TraceError writeBackspace(SimTime t);
    TraceError writePageSwitch(SimTime t, int page);
    TraceError writeAppSwitch(SimTime t, bool toTarget);
    TraceError writePopupShow(SimTime t, char ch);
    TraceError writeTrialBegin(SimTime t, const std::string &truth);
    TraceError writeTrialEnd(SimTime t);
    TraceError writeFault(SimTime t, kgsl::FaultKind kind,
                          std::uint64_t detail);

    /** Write out the block and close; returns the first error seen,
     *  if any. */
    TraceError close();

    bool isOpen() const { return file_ != nullptr; }
    std::uint64_t recordCount() const { return records_; }
    /** First write error encountered (sticky). */
    TraceError error() const { return error_; }

  private:
    /** Write the block to the file and empty it. */
    TraceError flushBlock();

    std::FILE *file_ = nullptr;
    /** Encoded frames not yet written to the file. */
    ByteWriter block_;
    std::uint64_t records_ = 0;
    TraceError error_ = TraceError::None;
};

} // namespace gpusc::trace

#endif // GPUSC_TRACE_TRACE_WRITER_H
