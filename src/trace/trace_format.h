/**
 * @file
 * The versioned on-disk format for recorded performance-counter
 * traces (.gpct files).
 *
 * A trace is the complete observable input of one eavesdropping
 * session: the timestamped counter readings the sampler produced,
 * interleaved with ground-truth events (key presses, popup renders,
 * app switches, trial boundaries) so recorded corpora carry their own
 * labels. Layout:
 *
 *   [ u32 magic "GPCT" | u16 version | u16 payloadLen |
 *     header payload ... | u32 crc32(payload) ]
 *   [ record ]*
 *
 * where each record is framed as
 *
 *   [ u8 kind | u32 payloadLen | payload ... |
 *     u32 crc32(kind, payloadLen, payload) ]
 *
 * The header payload stores the device-configuration key plus the
 * full DeviceConfig, the sampling interval and the experiment seed,
 * so a trace is self-describing: replay tooling can re-train the
 * matching signature model from the header alone. Readers must
 * reject unknown versions; unknown record kinds within a known
 * version are a format error (kinds are append-only across
 * versions).
 */

#ifndef GPUSC_TRACE_TRACE_FORMAT_H
#define GPUSC_TRACE_TRACE_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "android/device.h"
#include "attack/sampler.h"
#include "kgsl/fault_injector.h"
#include "trace/trace_error.h"
#include "util/binary_io.h"

namespace gpusc::trace {

/** File magic "GPCT" (GPu Counter Trace), little-endian. */
inline constexpr std::uint32_t kTraceMagic = 0x54435047;
/**
 * Current format version; bump on any layout change.
 * v1: initial format. v2: adds the Fault record kind (injected
 * device faults annotate the stream; everything else is unchanged,
 * so v1 files remain fully readable).
 */
inline constexpr std::uint16_t kTraceVersion = 2;
/** Oldest version this reader still accepts. */
inline constexpr std::uint16_t kTraceMinVersion = 1;
/** Conventional file extension for traces. */
inline constexpr const char *kTraceExtension = ".gpct";

/** Everything a trace records about the session that produced it. */
struct TraceHeader
{
    /** Format version of the file (filled on read; files are always
     *  written at kTraceVersion). */
    std::uint16_t version = kTraceVersion;
    /** Device::modelKey() of the recorded victim device. */
    std::string deviceKey{};
    /** Full victim configuration (self-describing replay). */
    android::DeviceConfig device{};
    /** Sampler interval used during capture. */
    SimTime samplingInterval = SimTime::fromMs(8);
    /** Experiment seed of the recorded run. */
    std::uint64_t seed = 0;
};

/** Record type tags (append-only; never renumber). */
enum class RecordKind : std::uint8_t
{
    Reading = 1,    ///< one sampler observation
    KeyPress = 2,   ///< ground truth: character key pressed
    Backspace = 3,  ///< ground truth: backspace pressed
    PageSwitch = 4, ///< ground truth: keyboard page switch
    AppSwitch = 5,  ///< ground truth: foreground app changed
    PopupShow = 6,  ///< ground truth: key popup rendered
    TrialBegin = 7, ///< ground truth: credential entry starts
    TrialEnd = 8,   ///< ground truth: credential entry scored
    Fault = 9,      ///< v2+: injected device fault (annotation)
};

/**
 * True if @p k is a kind a file of @p version may legally contain
 * (kinds are append-only, so the version caps the range).
 */
bool knownRecordKind(std::uint8_t k,
                     std::uint16_t version = kTraceVersion);

/** One decoded trace record (tagged union, kind selects fields). */
struct TraceRecord
{
    RecordKind kind = RecordKind::Reading;
    SimTime time{};
    /** Kind::Reading */
    attack::Reading reading{};
    /** KeyPress / PopupShow: the key's character. */
    char ch = 0;
    /** PageSwitch: target keyboard page index. */
    int page = 0;
    /** AppSwitch: true when switching back into the target app. */
    bool toTarget = false;
    /** TrialBegin: the ground-truth credential text. */
    std::string text{};
    /** Fault: category of the injected fault. */
    kgsl::FaultKind fault = kgsl::FaultKind::TransientError;
    /** Fault: kind-specific detail (errno, group, epoch, ...). */
    std::uint64_t faultDetail = 0;
};

// --- Header codec --------------------------------------------------

/**
 * Serialise the full header block (magic through CRC).
 * @return empty if a string or the whole payload does not fit its
 * u16 length field (TraceError::FieldTooLong for writers).
 */
std::vector<std::uint8_t> encodeHeader(const TraceHeader &h);

/**
 * Parse a header block from the front of @p reader.
 * @return None and fills @p out, or the typed failure.
 */
TraceError decodeHeader(ByteReader &reader, TraceHeader &out);

// --- Record codec --------------------------------------------------

/** Bytes of a record frame before its payload: u8 kind + u32 length. */
inline constexpr std::size_t kRecordPrefixBytes = 5;
/** Bytes of a record frame after its payload: the u32 CRC. */
inline constexpr std::size_t kRecordCrcBytes = 4;
/**
 * I/O block of TraceWriter and TraceReader: the writer writes its
 * frames out once they fill this many bytes and the reader refills
 * this many at a time, so one fwrite/fread moves a block, not a
 * frame. A longer frame still fits: the block grows to hold it (a
 * TrialBegin frame can reach 65,554 bytes).
 */
inline constexpr std::size_t kTraceBlockBytes = 64 * 1024;

/**
 * Append one record frame (kind through CRC) to @p out.
 * @return false, with nothing appended, if a value does not fit its
 * field: a TrialBegin text over 65,535 bytes, or a PageSwitch page
 * outside 0..255 (TraceError::FieldTooLong for writers).
 */
bool encodeRecord(const TraceRecord &r, ByteWriter &out);

/**
 * Decode one record payload: the bytes between a frame's 5-byte
 * kind+length prefix and its trailing CRC, which the reader has
 * already checked. @p version is the containing file's
 * format version; kinds newer than it are a format error.
 */
TraceError decodePayload(std::uint8_t kind,
                         const std::uint8_t *payload,
                         std::size_t size, TraceRecord &out,
                         std::uint16_t version = kTraceVersion);

} // namespace gpusc::trace

#endif // GPUSC_TRACE_TRACE_FORMAT_H
