// The shared Montgomery NTT core at the edges of its coefficient bounds.
// The lazy additions are sized for worst-case inputs, which random
// polynomials never approach: equal coefficients make every sum of the
// inverse transform as large as the bound allows, so an under-reduced
// layer would overflow here and break the round trip.
#include "convolve/crypto/detail/pqc_ntt.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

namespace convolve::crypto::detail {
namespace {

template <class F>
using Poly = std::array<typename F::Coeff, 256>;

// ntt_inverse returns the inverse transform times R (it expects a
// Montgomery product), so transforming forward again gives f * R.
template <class F>
void expect_round_trip(const Poly<F>& in) {
  constexpr std::int64_t q = F::kQ;
  constexpr std::int64_t r_mod_q = (std::int64_t{1} << NttConst<F>::kBits) % q;
  Poly<F> f = in;
  ntt_inverse<F>(f.data());
  for (auto& c : f) c = freeze<F>(c);
  ntt_forward<F>(f.data());
  for (std::size_t i = 0; i < f.size(); ++i) {
    const std::int64_t want = ((in[i] * r_mod_q) % q + q) % q;
    ASSERT_EQ(freeze<F>(f[i]), want) << "coefficient " << i;
  }
}

template <class F>
void extreme_inputs_round_trip() {
  constexpr auto top = static_cast<typename F::Coeff>(F::kQ - 1);
  constexpr auto half = static_cast<typename F::Coeff>((F::kQ - 1) / 2);
  Poly<F> f;
  for (const auto v : {top, static_cast<typename F::Coeff>(-top), half}) {
    f.fill(v);
    expect_round_trip<F>(f);
  }
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = i % 2 ? top : -top;
  expect_round_trip<F>(f);
}

TEST(NttCore, KyberExtremeInputsRoundTrip) {
  extreme_inputs_round_trip<KyberField>();
}

TEST(NttCore, DilithiumExtremeInputsRoundTrip) {
  extreme_inputs_round_trip<DilithiumField>();
}

}  // namespace
}  // namespace convolve::crypto::detail
