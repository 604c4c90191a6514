// Curve checkpoints shared by the TVLA and CPA campaigns (src/sca only).
#pragma once

#include <cstdint>
#include <vector>

namespace convolve::sca {

/// Checkpoints of a TVLA or CPA curve: `configured` when it is not empty,
/// else 256, 512, ... below n_traces, then n_traces.
inline std::vector<int> campaign_checkpoints(
    const std::vector<int>& configured, int n_traces) {
  if (!configured.empty()) return configured;
  std::vector<int> cps;
  // 64-bit doubling: n_traces near INT_MAX must not overflow the step.
  for (std::int64_t c = 256; c < n_traces; c *= 2) {
    cps.push_back(static_cast<int>(c));
  }
  cps.push_back(n_traces);
  return cps;
}

}  // namespace convolve::sca
