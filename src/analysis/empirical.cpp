#include "convolve/analysis/empirical.hpp"

#include <stdexcept>

namespace convolve::analysis {

CrossCheckReport cross_check_probing_vs_tvla(
    const masking::MaskedCircuit& masked, int plain_inputs, unsigned order,
    const CrossCheckOptions& options) {
  if (order < 1 || order > 2) {
    throw std::invalid_argument("cross_check: statistical order must be 1 or 2");
  }
  CrossCheckReport report;

  const SymbolicReport symbolic =
      verify_probing_symbolic(masked, plain_inputs, order, options.symbolic);
  report.static_verdict = symbolic.verdict;
  report.static_secure = symbolic.verdict == Verdict::kSecure;

  sca::MaskedTraceTarget target(
      masked, plain_inputs,
      sca::TraceConfig{/*noise_sigma=*/0.0});
  std::uint32_t fixed = options.fixed_value;
  if (fixed == ~0u) {
    fixed = plain_inputs >= 32 ? ~0u : (1u << plain_inputs) - 1u;
  }
  sca::TvlaConfig tvla_config;
  tvla_config.threshold = options.threshold;
  tvla_config.seed = options.seed;
  report.tvla =
      sca::tvla_fixed_vs_random(target, fixed, options.n_traces, tvla_config);
  report.max_abs_t =
      order == 1 ? report.tvla.max_abs_t1 : report.tvla.max_abs_t2;
  report.empirical_leak = report.max_abs_t > options.threshold;
  report.agree = report.static_secure == !report.empirical_leak;
  return report;
}

}  // namespace convolve::analysis
