/**
 * @file
 * Streaming writer for .gpct trace files.
 *
 * Records are framed and CRC-protected individually (see
 * trace_format.h), so a crash mid-recording leaves a file whose
 * intact prefix is still fully readable — the reader reports the torn
 * tail as TruncatedRecord instead of discarding the session.
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
     * Create/truncate @p path and write the header block. A header
     * whose strings or payload exceed their u16 length fields is
     * refused with FieldTooLong before the file is touched.
     */
    TraceError open(const std::string &path, const TraceHeader &h);

    /**
     * Append one record frame. A TrialBegin text over 65,535 bytes is
     * refused with FieldTooLong and nothing is written.
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

    /** Flush and close; returns the first error seen, if any. */
    TraceError close();

    bool isOpen() const { return file_ != nullptr; }
    std::uint64_t recordCount() const { return records_; }
    /** First write error encountered (sticky). */
    TraceError error() const { return error_; }

  private:
    std::FILE *file_ = nullptr;
    std::uint64_t records_ = 0;
    TraceError error_ = TraceError::None;
};

} // namespace gpusc::trace

#endif // GPUSC_TRACE_TRACE_WRITER_H
