/**
 * @file
 * Typed error codes for the trace capture & replay subsystem.
 *
 * Every failure mode of reading/writing a recorded counter trace maps
 * to one enumerator, so corrupt or truncated files surface as values
 * callers can branch on — never as crashes or undefined behaviour.
 */

#ifndef GPUSC_TRACE_TRACE_ERROR_H
#define GPUSC_TRACE_TRACE_ERROR_H

namespace gpusc::trace {

/** Outcome of a trace IO operation. */
enum class TraceError
{
    None = 0,          ///< success
    IoOpen,            ///< file could not be opened
    IoRead,            ///< short read / stream error mid-file
    IoWrite,           ///< write or flush failed (disk full, ...)
    NotOpen,           ///< operation on a closed writer/reader
    BadMagic,          ///< not a trace file
    BadVersion,        ///< written by an unknown format version
    TruncatedHeader,   ///< header ends early
    HeaderCrcMismatch, ///< header bytes corrupted
    TruncatedRecord,   ///< record frame ends early (torn write)
    RecordCrcMismatch, ///< record payload corrupted
    BadRecordKind,     ///< unknown record type byte
    BadRecordPayload,  ///< payload malformed for its kind
    FieldTooLong,      ///< a value does not fit its field
};

/** Stable human-readable name, e.g. "RecordCrcMismatch". */
const char *traceErrorString(TraceError e);

} // namespace gpusc::trace

#endif // GPUSC_TRACE_TRACE_ERROR_H
