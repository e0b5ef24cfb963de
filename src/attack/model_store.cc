#include "attack/model_store.h"

#include <cstdio>
#include <cstring>

#include "util/binary_io.h"
#include "util/logging.h"

namespace gpusc::attack {

namespace {

/** File envelope magic "GPMS" (GPu Model Store). */
constexpr std::uint32_t kStoreFileMagic = 0x534d5047;
constexpr std::uint32_t kStoreFileVersion = 1;

} // namespace

void
ModelStore::put(SignatureModel model)
{
    const std::string key = model.modelKey();
    models_.insert_or_assign(key, std::move(model));
}

const SignatureModel *
ModelStore::find(const std::string &key) const
{
    auto it = models_.find(key);
    return it == models_.end() ? nullptr : &it->second;
}

const SignatureModel &
ModelStore::getOrTrain(const android::DeviceConfig &cfg,
                       const OfflineTrainer &trainer)
{
    // Key derivation must match Device::modelKey(); build a throwaway
    // device only to compute it cheaply? Constructing a Device is
    // cheap (no simulation run), so use it directly.
    const std::string key = android::Device(cfg).modelKey();
    auto it = models_.find(key);
    if (it != models_.end())
        return it->second;
    inform("ModelStore: training model for %s", key.c_str());
    SignatureModel m = trainer.train(cfg);
    return models_.emplace(key, std::move(m)).first->second;
}

std::vector<std::string>
ModelStore::keys() const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : models_)
        out.push_back(k);
    return out;
}

std::size_t
ModelStore::totalByteSize() const
{
    std::size_t n = 0;
    for (const auto &[k, m] : models_)
        n += m.byteSize();
    return n;
}

std::vector<std::uint8_t>
ModelStore::serialize() const
{
    ByteWriter w;
    w.u32(std::uint32_t(models_.size()));
    for (const auto &[k, m] : models_) {
        const std::vector<std::uint8_t> blob = m.serialize();
        w.u32(std::uint32_t(blob.size()));
        w.raw(blob.data(), blob.size());
    }
    return w.take();
}

ModelStore
ModelStore::deserialize(const std::vector<std::uint8_t> &blob)
{
    std::optional<ModelStore> store = tryDeserialize(blob);
    if (!store) {
        warn("ModelStore::deserialize: truncated or corrupt blob "
             "(%zu bytes) — returning an empty store",
             blob.size());
        return ModelStore{};
    }
    return *std::move(store);
}

std::optional<ModelStore>
ModelStore::tryDeserialize(const std::vector<std::uint8_t> &blob)
{
    ModelStore store;
    ByteReader r(blob);
    const std::uint32_t count = r.u32();
    if (!r.ok())
        return std::nullopt;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t len = r.u32();
        if (!r.ok() || len > r.remaining())
            return std::nullopt;
        std::optional<SignatureModel> m =
            SignatureModel::tryDeserialize(blob.data() + r.pos(),
                                           len);
        if (!m)
            return std::nullopt;
        r.skip(len);
        store.put(*std::move(m));
    }
    if (!r.atEnd())
        return std::nullopt; // trailing garbage
    return store;
}

bool
ModelStore::saveToFile(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const std::vector<std::uint8_t> payload = serialize();
    ByteWriter envelope;
    envelope.u32(kStoreFileMagic);
    envelope.u32(kStoreFileVersion);
    envelope.u64(payload.size());
    envelope.raw(payload.data(), payload.size());
    envelope.u32(crc32(payload));
    const std::span<const std::uint8_t> blob = envelope.bytes();
    const bool ok =
        std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
    std::fclose(f);
    return ok;
}

ModelStore
ModelStore::loadFromFile(const std::string &path)
{
    std::optional<ModelStore> store = tryLoadFromFile(path);
    if (!store) {
        warn("ModelStore: cannot load '%s' — returning an empty "
             "store",
             path.c_str());
        return ModelStore{};
    }
    return *std::move(store);
}

std::optional<ModelStore>
ModelStore::tryLoadFromFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        warn("ModelStore: cannot open '%s'", path.c_str());
        return std::nullopt;
    }
    std::vector<std::uint8_t> blob;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        blob.insert(blob.end(), buf, buf + n);
    std::fclose(f);

    ByteReader r(blob);
    if (r.u32() != kStoreFileMagic || !r.ok()) {
        warn("ModelStore: '%s' is not a model-store file",
             path.c_str());
        return std::nullopt;
    }
    if (r.u32() != kStoreFileVersion || !r.ok()) {
        warn("ModelStore: '%s' has an unknown version",
             path.c_str());
        return std::nullopt;
    }
    const std::uint64_t len = r.u64();
    if (!r.ok() || len + 4 != r.remaining()) {
        warn("ModelStore: '%s' is truncated", path.c_str());
        return std::nullopt;
    }
    const std::size_t payloadPos = r.pos();
    r.skip(std::size_t(len));
    const std::uint32_t storedCrc = r.u32();
    if (crc32(blob.data() + payloadPos, std::size_t(len)) !=
        storedCrc) {
        warn("ModelStore: '%s' failed its CRC check (corrupt file)",
             path.c_str());
        return std::nullopt;
    }
    std::optional<ModelStore> store = tryDeserialize(
        {blob.begin() + long(payloadPos),
         blob.begin() + long(payloadPos + len)});
    if (!store)
        warn("ModelStore: '%s' payload is malformed", path.c_str());
    return store;
}

ModelStore &
ModelStore::global()
{
    static ModelStore store;
    return store;
}

} // namespace gpusc::attack
