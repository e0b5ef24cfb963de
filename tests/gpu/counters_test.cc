/** @file Unit tests for the counter definitions and vector helpers. */

#include <gtest/gtest.h>

#include <optional>

#include "gpu/counters.h"

namespace gpusc::gpu {
namespace {

TEST(CountersTest, Table1Mapping)
{
    // The exact (group, countable) pairs of the paper's Table 1.
    EXPECT_EQ(counterId(LRZ_VISIBLE_PRIM_AFTER_LRZ).group, 0x19u);
    EXPECT_EQ(counterId(LRZ_VISIBLE_PRIM_AFTER_LRZ).countable, 13u);
    EXPECT_EQ(counterId(LRZ_FULL_8X8_TILES).countable, 14u);
    EXPECT_EQ(counterId(LRZ_PARTIAL_8X8_TILES).countable, 15u);
    EXPECT_EQ(counterId(LRZ_VISIBLE_PIXEL_AFTER_LRZ).countable, 18u);
    EXPECT_EQ(counterId(RAS_SUPERTILE_ACTIVE_CYCLES).group, 0x7u);
    EXPECT_EQ(counterId(RAS_SUPERTILE_ACTIVE_CYCLES).countable, 1u);
    EXPECT_EQ(counterId(RAS_SUPER_TILES).countable, 4u);
    EXPECT_EQ(counterId(RAS_8X4_TILES).countable, 5u);
    EXPECT_EQ(counterId(RAS_FULLY_COVERED_8X4_TILES).countable, 8u);
    EXPECT_EQ(counterId(VPC_PC_PRIMITIVES).group, 0x5u);
    EXPECT_EQ(counterId(VPC_PC_PRIMITIVES).countable, 9u);
    EXPECT_EQ(counterId(VPC_SP_COMPONENTS).countable, 10u);
    EXPECT_EQ(counterId(VPC_LRZ_ASSIGN_PRIMITIVES).countable, 12u);
}

TEST(CountersTest, VendorStringIdentifiers)
{
    EXPECT_EQ(counterName(LRZ_VISIBLE_PRIM_AFTER_LRZ),
              "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ");
    EXPECT_EQ(counterName(RAS_FULLY_COVERED_8X4_TILES),
              "PERF_RAS_FULLY_COVERED_8X4_TILES");
    EXPECT_EQ(counterName(VPC_SP_COMPONENTS),
              "PERF_VPC_SP_COMPONENTS");
}

TEST(CountersTest, ReverseLookupRoundTrips)
{
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i) {
        const auto sel = SelectedCounter(i);
        const auto back = selectedFromId(counterId(sel));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, sel);
    }
}

TEST(CountersTest, ReverseLookupRejectsUnknown)
{
    EXPECT_FALSE(selectedFromId({0x19, 99}).has_value());
    EXPECT_FALSE(selectedFromId({0x42, 13}).has_value());
}

TEST(CountersTest, ReverseLookupAgreesWithTable1OnEveryId)
{
    for (std::uint32_t group = 0; group < 0x40; ++group) {
        for (std::uint32_t countable = 0; countable < 64; ++countable) {
            const CounterId id{group, countable};
            std::optional<SelectedCounter> want;
            for (std::size_t i = 0; i < kNumSelectedCounters; ++i)
                if (counterId(SelectedCounter(i)) == id)
                    want = SelectedCounter(i);
            EXPECT_EQ(selectedFromId(id), want)
                << "group " << group << ", countable " << countable;
        }
    }
}

TEST(CountersTest, GroupLabels)
{
    EXPECT_EQ(groupLabel(CounterGroup::LRZ), "LRZ");
    EXPECT_EQ(groupLabel(CounterGroup::RAS), "RAS");
    EXPECT_EQ(groupLabel(CounterGroup::VPC), "VPC");
}

TEST(CountersTest, VectorArithmetic)
{
    CounterVec a{}, b{};
    a[0] = 5;
    a[3] = -2;
    b[0] = 1;
    b[3] = 7;
    const CounterVec sum = a + b;
    EXPECT_EQ(sum[0], 6);
    EXPECT_EQ(sum[3], 5);
    const CounterVec diff = a - b;
    EXPECT_EQ(diff[0], 4);
    EXPECT_EQ(diff[3], -9);
}

TEST(CountersTest, Norms)
{
    CounterVec v{};
    v[0] = 3;
    v[1] = -4;
    EXPECT_EQ(l1Norm(v), 7);
    CounterVec z{};
    EXPECT_TRUE(isZero(z));
    EXPECT_FALSE(isZero(v));
    EXPECT_DOUBLE_EQ(l2Distance(v, z), 5.0);
}

} // namespace
} // namespace gpusc::gpu
