// Time representations used throughout Cameo.
//
// Physical time (`SimTime`) is a signed 64-bit count of nanoseconds since the
// start of a run. Logical time (`LogicalTime`, paper: p_M) is the stream
// progress domain: event time, ingestion time, or processing time ticks
// (Section 4.3 of the paper). Both are plain integers so the discrete-event
// simulator and the wall-clock runtime share every downstream component.
#pragma once

#include <cstdint>
#include <limits>

namespace cameo {

/// Physical time in nanoseconds. Paper notation: t_M, t_MF.
using SimTime = std::int64_t;

/// Stream progress (logical time). Paper notation: p_M, p_MF.
using LogicalTime = std::int64_t;

/// Duration in nanoseconds (same unit as SimTime).
using Duration = std::int64_t;

inline constexpr SimTime kTimeMax = std::numeric_limits<SimTime>::max();
inline constexpr SimTime kTimeMin = std::numeric_limits<SimTime>::min();

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1'000;
inline constexpr Duration kMillisecond = 1'000'000;
inline constexpr Duration kSecond = 1'000'000'000;

constexpr Duration Micros(std::int64_t n) { return n * kMicrosecond; }
constexpr Duration Millis(std::int64_t n) { return n * kMillisecond; }
constexpr Duration Seconds(std::int64_t n) { return n * kSecond; }

/// `t + d`, clamped to [kTimeMin, kTimeMax] instead of overflowing: a
/// deadline computed from a clock already at (or near) kTimeMax stays at
/// kTimeMax ("never").
constexpr SimTime SatAdd(SimTime t, Duration d) {
  SimTime r = 0;
  if (__builtin_add_overflow(t, d, &r)) return d > 0 ? kTimeMax : kTimeMin;
  return r;
}

constexpr double ToMillis(Duration d) { return static_cast<double>(d) / kMillisecond; }
constexpr double ToSeconds(Duration d) { return static_cast<double>(d) / kSecond; }

namespace literals {
constexpr Duration operator""_us(unsigned long long n) { return Micros(static_cast<std::int64_t>(n)); }
constexpr Duration operator""_ms(unsigned long long n) { return Millis(static_cast<std::int64_t>(n)); }
constexpr Duration operator""_s(unsigned long long n) { return Seconds(static_cast<std::int64_t>(n)); }
}  // namespace literals

}  // namespace cameo
