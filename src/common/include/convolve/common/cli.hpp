// Command-line rejection shared by the tools and benches: an unknown
// option or a bad option value prints what was wrong plus the binary's
// usage line to stderr and exits 2, never an uncaught exception (SIGABRT).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace convolve::cli {

/// Print `problem` and `usage` (one line each) to stderr and exit 2.
[[noreturn]] inline void usage_error(std::string_view problem,
                                     std::string_view usage) {
  std::fprintf(stderr, "%.*s\n%.*s\n", static_cast<int>(problem.size()),
               problem.data(), static_cast<int>(usage.size()), usage.data());
  std::exit(2);
}

/// `text` parsed whole as T: an integer in T's range, or a finite double,
/// that lies in [lo, hi]. Anything else (empty, sign on an unsigned,
/// trailing junk, overflow, nan/inf, out of range) is a usage_error naming
/// the argument `arg` it came from.
template <typename T>
T parse_value(std::string_view text, std::string_view arg,
              std::string_view usage, T lo = std::numeric_limits<T>::lowest(),
              T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  bool ok = !text.empty() && ec == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) usage_error("bad value in '" + std::string(arg) + "'", usage);
  if (v < lo || v > hi) {
    const T bound = v < lo ? lo : hi;
    std::string shown;
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", static_cast<double>(bound));
      shown = buf;
    } else {
      shown = std::to_string(bound);
    }
    usage_error("value in '" + std::string(arg) + "' is " +
                    (v < lo ? "below the minimum " : "above the maximum ") +
                    shown,
                usage);
  }
  return v;
}

}  // namespace convolve::cli
