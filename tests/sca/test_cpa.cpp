// CPA key recovery against the AES S-box: works against the unmasked
// netlist, collapses against order-1 DOM -- the measured (not asserted)
// side of the masking-order security claim.
#include "convolve/sca/cpa.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "convolve/analysis/aes_sbox.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/common/stats.hpp"

namespace convolve::sca {
namespace {

MaskedTraceTarget sbox_target(unsigned order, double sigma) {
  auto masked = masking::mask_circuit(analysis::aes_sbox_circuit(), order);
  return MaskedTraceTarget(std::move(masked), 8,
                           {sigma},
                           BitOrder::kMsbFirst);
}

TEST(Cpa, RecoversKeyFromUnmaskedTraces) {
  const auto target = sbox_target(0, 1.0);
  const CpaReport report = cpa_sbox_attack(target, 0x3C, 1024);
  EXPECT_EQ(report.true_key, 0x3C);
  EXPECT_EQ(report.recovered_key, 0x3C);
  EXPECT_EQ(report.rank, 0);
  ASSERT_GE(report.traces_to_rank0, 0);
  EXPECT_LE(report.traces_to_rank0, 1024);
  ASSERT_EQ(report.correlation.size(), 256u);
  EXPECT_EQ(argmax(report.correlation), 0x3Cu);
}

TEST(Cpa, RecoversEveryTestedKeyByte) {
  const auto target = sbox_target(0, 0.5);
  for (std::uint8_t key : {0x00, 0x52, 0xA7, 0xFF}) {
    const CpaReport report = cpa_sbox_attack(target, key, 1024);
    EXPECT_EQ(report.recovered_key, key);
    EXPECT_EQ(report.rank, 0);
  }
}

TEST(Cpa, Order1MaskingDefeatsFirstOrderCpa) {
  const auto target = sbox_target(1, 1.0);
  const CpaReport report = cpa_sbox_attack(target, 0x3C, 2048);
  // Per-sample means are secret-independent under order-1 DOM: the correct
  // key never reaches the top of the ranking.
  EXPECT_EQ(report.traces_to_rank0, -1);
  EXPECT_GT(report.rank, 8);
}

TEST(Cpa, ReportBitIdenticalAcrossThreadCounts) {
  const auto target = sbox_target(0, 1.0);
  CpaConfig config;
  config.checkpoints = {256, 512};

  CpaReport reference;
  {
    par::ScopedThreadCount one(1);
    reference = cpa_sbox_attack(target, 0x77, 512, config);
  }
  for (int threads : {2, 4, 7}) {
    par::ScopedThreadCount scope(threads);
    const CpaReport report = cpa_sbox_attack(target, 0x77, 512, config);
    EXPECT_EQ(report.correlation, reference.correlation)
        << "threads=" << threads;
    ASSERT_EQ(report.curve.size(), reference.curve.size());
    for (std::size_t i = 0; i < report.curve.size(); ++i) {
      EXPECT_EQ(report.curve[i].rank, reference.curve[i].rank);
      EXPECT_EQ(report.curve[i].best_corr, reference.curve[i].best_corr);
    }
  }
}

TEST(Cpa, RejectsNonByteTargets) {
  auto masked = masking::mask_circuit(masking::full_adder_circuit(), 0);
  const MaskedTraceTarget target(std::move(masked), 3,
                                 {0.0});
  EXPECT_THROW(cpa_sbox_attack(target, 0x3C, 256), std::invalid_argument);
}

}  // namespace
}  // namespace convolve::sca
