#pragma once
/// \file time.hpp
/// \brief Simulated-time primitives shared by every IDEA module.
///
/// The whole stack (simulator, overlays, detection, resolution) measures time
/// in integer microseconds.  Integers keep event ordering exact and make runs
/// bit-reproducible across platforms, which floating-point seconds would not.

#include <cstdint>
#include <string>

namespace idea {

/// A point in simulated time, in microseconds since the start of the run.
using SimTime = std::int64_t;

/// A span of simulated time, in microseconds.
using SimDuration = std::int64_t;

/// Sentinel for "no deadline" / "never".
inline constexpr SimTime kNever = INT64_MAX;

/// Convert microseconds to a SimDuration (identity; spells out intent).
constexpr SimDuration usec(std::int64_t n) { return n; }

/// Convert milliseconds to a SimDuration.
constexpr SimDuration msec(std::int64_t n) { return n * 1000; }

/// Convert seconds to a SimDuration.
constexpr SimDuration sec(std::int64_t n) { return n * 1'000'000; }

/// Convert a fractional number of milliseconds to a SimDuration.
constexpr SimDuration msec_f(double n) {
  return static_cast<SimDuration>(n * 1000.0);
}

/// Convert a fractional number of seconds to a SimDuration.
constexpr SimDuration sec_f(double n) {
  return static_cast<SimDuration>(n * 1'000'000.0);
}

/// A SimDuration expressed as fractional milliseconds (for reporting).
constexpr double to_ms(SimDuration d) {
  return static_cast<double>(d) / 1000.0;
}

/// A SimDuration expressed as fractional seconds (for reporting).
constexpr double to_sec(SimDuration d) {
  return static_cast<double>(d) / 1'000'000.0;
}

/// Render a time point as "12.345s" for logs and traces.
std::string format_time(SimTime t);

}  // namespace idea
