#include "gpu/counters.h"

#include <cmath>

#include "util/logging.h"

namespace gpusc::gpu {

namespace {

struct CounterDesc
{
    CounterId id;
    std::string name;
};

const std::array<CounterDesc, kNumSelectedCounters> &
descs()
{
    using enum CounterGroup;
    static const std::array<CounterDesc, kNumSelectedCounters> table = {{
        {{std::uint32_t(LRZ), 13}, "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ"},
        {{std::uint32_t(LRZ), 14}, "PERF_LRZ_FULL_8X8_TILES"},
        {{std::uint32_t(LRZ), 15}, "PERF_LRZ_PARTIAL_8X8_TILES"},
        {{std::uint32_t(LRZ), 18}, "PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ"},
        {{std::uint32_t(RAS), 1}, "PERF_RAS_SUPERTILE_ACTIVE_CYCLES"},
        {{std::uint32_t(RAS), 4}, "PERF_RAS_SUPER_TILES"},
        {{std::uint32_t(RAS), 5}, "PERF_RAS_8X4_TILES"},
        {{std::uint32_t(RAS), 8}, "PERF_RAS_FULLY_COVERED_8X4_TILES"},
        {{std::uint32_t(VPC), 9}, "PERF_VPC_PC_PRIMITIVES"},
        {{std::uint32_t(VPC), 10}, "PERF_VPC_SP_COMPONENTS"},
        {{std::uint32_t(VPC), 12}, "PERF_VPC_LRZ_ASSIGN_PRIMITIVES"},
    }};
    return table;
}

} // namespace

CounterId
counterId(SelectedCounter c)
{
    if (c >= kNumSelectedCounters)
        panic("counterId: bad selected counter %zu", std::size_t(c));
    return descs()[c].id;
}

const std::string &
counterName(SelectedCounter c)
{
    if (c >= kNumSelectedCounters)
        panic("counterName: bad selected counter %zu", std::size_t(c));
    return descs()[c].name;
}

std::optional<SelectedCounter>
selectedFromId(CounterId id)
{
    // Every kgsl READ entry lands here, so this is a switch rather
    // than a scan of descs(); counters_test checks the two agree.
    switch (CounterGroup(id.group)) {
      case CounterGroup::LRZ:
        switch (id.countable) {
          case 13:
            return LRZ_VISIBLE_PRIM_AFTER_LRZ;
          case 14:
            return LRZ_FULL_8X8_TILES;
          case 15:
            return LRZ_PARTIAL_8X8_TILES;
          case 18:
            return LRZ_VISIBLE_PIXEL_AFTER_LRZ;
        }
        break;
      case CounterGroup::RAS:
        switch (id.countable) {
          case 1:
            return RAS_SUPERTILE_ACTIVE_CYCLES;
          case 4:
            return RAS_SUPER_TILES;
          case 5:
            return RAS_8X4_TILES;
          case 8:
            return RAS_FULLY_COVERED_8X4_TILES;
        }
        break;
      case CounterGroup::VPC:
        switch (id.countable) {
          case 9:
            return VPC_PC_PRIMITIVES;
          case 10:
            return VPC_SP_COMPONENTS;
          case 12:
            return VPC_LRZ_ASSIGN_PRIMITIVES;
        }
        break;
    }
    return std::nullopt;
}

std::string
groupLabel(CounterGroup g)
{
    switch (g) {
      case CounterGroup::VPC:
        return "VPC";
      case CounterGroup::RAS:
        return "RAS";
      case CounterGroup::LRZ:
        return "LRZ";
    }
    return "???";
}

CounterVec
operator+(const CounterVec &a, const CounterVec &b)
{
    CounterVec r;
    for (std::size_t i = 0; i < r.size(); ++i)
        r[i] = a[i] + b[i];
    return r;
}

CounterVec
operator-(const CounterVec &a, const CounterVec &b)
{
    CounterVec r;
    for (std::size_t i = 0; i < r.size(); ++i)
        r[i] = a[i] - b[i];
    return r;
}

std::int64_t
l1Norm(const CounterVec &v)
{
    std::int64_t s = 0;
    for (std::int64_t x : v)
        s += x < 0 ? -x : x;
    return s;
}

double
l2Distance(const CounterVec &a, const CounterVec &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = double(a[i] - b[i]);
        s += d * d;
    }
    return std::sqrt(s);
}

bool
isZero(const CounterVec &v)
{
    for (std::int64_t x : v)
        if (x != 0)
            return false;
    return true;
}

} // namespace gpusc::gpu
