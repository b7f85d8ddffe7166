// Simulated time for the longitudinal measurement study.
//
// The paper's timeline runs from 2021-10-11 (initial measurement) through
// 2022-02-14 (final measurement). All simulation time is SimTime — seconds
// since the Unix epoch — with civil-date helpers so that modules can express
// events in the paper's own calendar terms.
#pragma once

#include <cstdint>
#include <string>

namespace spfail::util {

// Seconds since 1970-01-01T00:00:00Z.
using SimTime = std::int64_t;

constexpr SimTime kSecond = 1;
constexpr SimTime kMinute = 60;
constexpr SimTime kHour = 3600;
constexpr SimTime kDay = 86400;

struct CivilDate {
  int year = 1970;
  int month = 1;  // 1..12
  int day = 1;    // 1..31

  friend bool operator==(const CivilDate&, const CivilDate&) = default;
};

// Days since the epoch for a proleptic-Gregorian civil date.
// Howard Hinnant's public-domain algorithm.
constexpr std::int64_t days_from_civil(int y, int m, int d) noexcept {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

constexpr CivilDate civil_from_days(std::int64_t z) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  return CivilDate{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
                   static_cast<int>(d)};
}

constexpr SimTime at_midnight(int year, int month, int day) noexcept {
  return days_from_civil(year, month, day) * kDay;
}

constexpr CivilDate to_civil(SimTime t) noexcept {
  std::int64_t days = t / kDay;
  if (t < 0 && t % kDay != 0) --days;
  return civil_from_days(days);
}

// "YYYY-MM-DD" for logs and table output.
std::string format_date(SimTime t);
// "YYYY-MM-DD HH:MM:SS"
std::string format_datetime(SimTime t);

// A monotonically advancing simulation clock shared by a simulation's
// components. Advancing backwards is a logic error and throws.
//
// Sharded scanning layers per-thread "lanes" on top: while a Lane is active
// on a thread, now() reads the shared base plus a thread-private offset, and
// advance_to/advance_by move only that offset. Workers therefore advance
// time independently without touching shared state; after the join, the
// owner folds the lane offsets back into the base (summing them reproduces
// the serial clock exactly — see DESIGN.md, "Concurrency model"). The base
// must not be advanced while worker lanes are live.
class SimClock {
 public:
  explicit SimClock(SimTime start = 0) noexcept : now_(start) {}

  SimTime now() const noexcept {
    return lane_.clock == this ? now_ + lane_.offset : now_;
  }

  void advance_to(SimTime t);
  void advance_by(SimTime delta) { advance_to(now() + delta); }

  // RAII thread-local lane over one clock. At most one lane per thread.
  class Lane {
   public:
    explicit Lane(const SimClock& clock);
    ~Lane();
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    // Total simulated time this lane has advanced so far.
    SimTime offset() const noexcept { return lane_.offset; }

   private:
    const SimClock* clock_;
  };

 private:
  struct LaneState {
    const SimClock* clock = nullptr;
    SimTime offset = 0;
  };
  // constinit: constant-initialised, so other translation units read it
  // directly instead of through a TLS wrapper call (DESIGN.md §13).
  static constinit thread_local LaneState lane_;

  SimTime now_;
};

}  // namespace spfail::util
