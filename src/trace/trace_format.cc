#include "trace/trace_format.h"

namespace gpusc::trace {

const char *
traceErrorString(TraceError e)
{
    switch (e) {
      case TraceError::None: return "None";
      case TraceError::IoOpen: return "IoOpen";
      case TraceError::IoRead: return "IoRead";
      case TraceError::IoWrite: return "IoWrite";
      case TraceError::NotOpen: return "NotOpen";
      case TraceError::BadMagic: return "BadMagic";
      case TraceError::BadVersion: return "BadVersion";
      case TraceError::TruncatedHeader: return "TruncatedHeader";
      case TraceError::HeaderCrcMismatch: return "HeaderCrcMismatch";
      case TraceError::TruncatedRecord: return "TruncatedRecord";
      case TraceError::RecordCrcMismatch: return "RecordCrcMismatch";
      case TraceError::BadRecordKind: return "BadRecordKind";
      case TraceError::BadRecordPayload: return "BadRecordPayload";
      case TraceError::FieldTooLong: return "FieldTooLong";
    }
    return "Unknown";
}

bool
knownRecordKind(std::uint8_t k, std::uint16_t version)
{
    const std::uint8_t last = version >= 2
                                  ? std::uint8_t(RecordKind::Fault)
                                  : std::uint8_t(RecordKind::TrialEnd);
    return k >= std::uint8_t(RecordKind::Reading) && k <= last;
}

std::vector<std::uint8_t>
encodeHeader(const TraceHeader &h)
{
    ByteWriter payload;
    payload.str16(h.deviceKey);
    payload.str16(h.device.phone);
    payload.str16(h.device.keyboard);
    payload.str16(h.device.app);
    payload.str16(h.device.resolution);
    payload.i32(h.device.refreshHz);
    payload.i32(h.device.osVersion);
    payload.f64(h.device.noiseSigma);
    payload.u8(h.device.popupsDisabled ? 1 : 0);
    payload.i64(h.device.notificationMeanInterval.ns());
    payload.u64(h.device.seed);
    payload.i64(h.samplingInterval.ns());
    payload.u64(h.seed);
    if (!payload.ok() || payload.size() > 0xFFFF)
        return {};

    ByteWriter out;
    out.u32(kTraceMagic);
    out.u16(kTraceVersion);
    out.u16(std::uint16_t(payload.size()));
    out.raw(payload.bytes().data(), payload.size());
    out.u32(crc32(payload.bytes()));
    return out.take();
}

TraceError
decodeHeader(ByteReader &reader, TraceHeader &out)
{
    const std::uint32_t magic = reader.u32();
    if (!reader.ok())
        return TraceError::TruncatedHeader;
    if (magic != kTraceMagic)
        return TraceError::BadMagic;
    const std::uint16_t version = reader.u16();
    if (!reader.ok())
        return TraceError::TruncatedHeader;
    if (version < kTraceMinVersion || version > kTraceVersion)
        return TraceError::BadVersion;
    out.version = version;
    const std::uint16_t payloadLen = reader.u16();
    if (!reader.ok() || reader.remaining() < payloadLen + 4u)
        return TraceError::TruncatedHeader;

    std::vector<std::uint8_t> payload(payloadLen);
    reader.raw(payload.data(), payloadLen);
    const std::uint32_t storedCrc = reader.u32();
    if (!reader.ok())
        return TraceError::TruncatedHeader;
    if (crc32(payload) != storedCrc)
        return TraceError::HeaderCrcMismatch;

    ByteReader p(payload);
    out.deviceKey = p.str16();
    out.device.phone = p.str16();
    out.device.keyboard = p.str16();
    out.device.app = p.str16();
    out.device.resolution = p.str16();
    out.device.refreshHz = p.i32();
    out.device.osVersion = p.i32();
    out.device.noiseSigma = p.f64();
    out.device.popupsDisabled = p.u8() != 0;
    out.device.notificationMeanInterval = SimTime::fromNs(p.i64());
    out.device.seed = p.u64();
    out.samplingInterval = SimTime::fromNs(p.i64());
    out.seed = p.u64();
    if (!p.ok() || !p.atEnd())
        return TraceError::TruncatedHeader;
    return TraceError::None;
}

bool
encodeRecord(const TraceRecord &r, ByteWriter &out)
{
    const std::size_t at = out.size();
    out.u8(std::uint8_t(r.kind));
    out.u32(0); // payload length, patched below
    out.i64(r.time.ns());
    bool fits = true;
    switch (r.kind) {
      case RecordKind::Reading:
        for (std::uint64_t v : r.reading.totals)
            out.u64(v);
        break;
      case RecordKind::KeyPress:
      case RecordKind::PopupShow:
        out.u8(std::uint8_t(r.ch));
        break;
      case RecordKind::PageSwitch:
        fits = r.page >= 0 && r.page <= 0xFF;
        out.u8(std::uint8_t(r.page));
        break;
      case RecordKind::AppSwitch:
        out.u8(r.toTarget ? 1 : 0);
        break;
      case RecordKind::TrialBegin:
        out.str16(r.text);
        break;
      case RecordKind::Fault:
        out.u8(std::uint8_t(r.fault));
        out.u64(r.faultDetail);
        break;
      case RecordKind::Backspace:
      case RecordKind::TrialEnd:
        break;
    }
    if (!fits || !out.ok()) {
        out.rewind(at);
        return false;
    }
    out.patchU32(at + 1, std::uint32_t(out.size() - at -
                                       kRecordPrefixBytes));
    // CRC covers the frame prefix too, so a corrupted length or kind
    // byte is caught as well.
    out.u32(crc32(out.bytes().subspan(at)));
    return true;
}

TraceError
decodePayload(std::uint8_t kind, const std::uint8_t *payload,
              std::size_t size, TraceRecord &out,
              std::uint16_t version)
{
    if (!knownRecordKind(kind, version))
        return TraceError::BadRecordKind;
    out = TraceRecord{};
    out.kind = RecordKind(kind);
    ByteReader p(payload, size);
    out.time = SimTime::fromNs(p.i64());
    switch (out.kind) {
      case RecordKind::Reading:
        out.reading.time = out.time;
        for (std::uint64_t &v : out.reading.totals)
            v = p.u64();
        break;
      case RecordKind::KeyPress:
      case RecordKind::PopupShow:
        out.ch = char(p.u8());
        break;
      case RecordKind::PageSwitch:
        out.page = int(p.u8());
        break;
      case RecordKind::AppSwitch:
        out.toTarget = p.u8() != 0;
        break;
      case RecordKind::TrialBegin:
        out.text = p.str16();
        break;
      case RecordKind::Fault: {
        const std::uint8_t fk = p.u8();
        if (fk < std::uint8_t(kgsl::FaultKind::TransientError) ||
            fk > std::uint8_t(kgsl::FaultKind::DeviceReset))
            return TraceError::BadRecordPayload;
        out.fault = kgsl::FaultKind(fk);
        out.faultDetail = p.u64();
        break;
      }
      case RecordKind::Backspace:
      case RecordKind::TrialEnd:
        break;
    }
    if (!p.ok() || !p.atEnd())
        return TraceError::BadRecordPayload;
    return TraceError::None;
}

} // namespace gpusc::trace
