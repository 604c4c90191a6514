// TVLA transitions across masking orders: the empirical half of the
// acceptance matrix. Trace counts follow the calibration runs recorded in
// DESIGN.md section 5e -- the unmasked S-box fails first-order TVLA within
// the first checkpoint, order-1 DOM holds first order but collapses at
// second order, order-2 DOM holds both.
#include "convolve/sca/tvla.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "convolve/analysis/aes_sbox.hpp"
#include "convolve/common/parallel.hpp"

namespace convolve::sca {
namespace {

MaskedTraceTarget sbox_target(unsigned order, double sigma) {
  auto masked = masking::mask_circuit(analysis::aes_sbox_circuit(), order);
  return MaskedTraceTarget(std::move(masked), 8,
                           {sigma},
                           BitOrder::kMsbFirst);
}

TEST(Tvla, UnmaskedSboxFailsFirstOrderFast) {
  const auto target = sbox_target(0, 1.0);
  const TvlaReport report = tvla_fixed_vs_random(target, 0x52, 2048);
  EXPECT_TRUE(report.first_order_leak);
  EXPECT_GT(report.max_abs_t1, 4.5);
  ASSERT_GE(report.traces_to_first_order_fail, 0);
  EXPECT_LE(report.traces_to_first_order_fail, 2048);
}

TEST(Tvla, Order1DomPassesFirstOrderFailsSecondOrder) {
  const auto target = sbox_target(1, 0.0);
  const TvlaReport report = tvla_fixed_vs_random(target, 0x52, 8192);
  // First-order marginals of every wire are secret-independent.
  EXPECT_FALSE(report.first_order_leak);
  EXPECT_LT(report.max_abs_t1, 4.5);
  // The variance of the depth-group sums (both shares of one bit land in
  // the same sample) is not: centered squares separate the classes.
  EXPECT_TRUE(report.second_order_leak);
  ASSERT_GE(report.traces_to_second_order_fail, 0);
  EXPECT_LE(report.traces_to_second_order_fail, 2048);
}

TEST(Tvla, Order2DomPassesBothOrders) {
  const auto target = sbox_target(2, 0.0);
  const TvlaReport report = tvla_fixed_vs_random(target, 0x52, 16384);
  EXPECT_FALSE(report.first_order_leak);
  EXPECT_FALSE(report.second_order_leak);
  EXPECT_LT(report.max_abs_t1, 4.5);
  EXPECT_LT(report.max_abs_t2, 4.5);
}

TEST(Tvla, CurveIsMonotoneInCheckpointsAndEndsAtFullCount) {
  const auto target = sbox_target(0, 1.0);
  TvlaConfig config;
  config.checkpoints = {500, 1000, 1500};
  const TvlaReport report = tvla_fixed_vs_random(target, 0xAB, 1500, config);
  ASSERT_EQ(report.curve.size(), 3u);
  EXPECT_EQ(report.curve[0].traces, 500);
  EXPECT_EQ(report.curve[1].traces, 1000);
  EXPECT_EQ(report.curve[2].traces, 1500);
  EXPECT_EQ(report.curve.back().max_abs_t1, report.max_abs_t1);
  EXPECT_EQ(report.curve.back().max_abs_t2, report.max_abs_t2);
}

TEST(Tvla, ReportBitIdenticalAcrossThreadCounts) {
  const auto target = sbox_target(1, 1.0);
  TvlaConfig config;
  config.checkpoints = {512, 2000};

  TvlaReport reference;
  {
    par::ScopedThreadCount one(1);
    reference = tvla_fixed_vs_random(target, 0x52, 2000, config);
  }
  for (int threads : {2, 4, 7}) {
    par::ScopedThreadCount scope(threads);
    const TvlaReport report = tvla_fixed_vs_random(target, 0x52, 2000, config);
    EXPECT_EQ(report.t1, reference.t1) << "threads=" << threads;
    EXPECT_EQ(report.t2, reference.t2) << "threads=" << threads;
    ASSERT_EQ(report.curve.size(), reference.curve.size());
    for (std::size_t i = 0; i < report.curve.size(); ++i) {
      EXPECT_EQ(report.curve[i].max_abs_t1, reference.curve[i].max_abs_t1);
      EXPECT_EQ(report.curve[i].max_abs_t2, reference.curve[i].max_abs_t2);
    }
  }
}

TEST(Tvla, RejectsDegenerateRuns) {
  const auto target = sbox_target(0, 0.0);
  EXPECT_THROW(tvla_fixed_vs_random(target, 0, 2), std::invalid_argument);
  TvlaConfig config;
  config.checkpoints = {100000};  // no checkpoint within the budget
  EXPECT_THROW(tvla_fixed_vs_random(target, 0, 512, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace convolve::sca
