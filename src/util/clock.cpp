#include "util/clock.hpp"

#include <cstdio>
#include <stdexcept>

namespace spfail::util {

std::string format_date(SimTime t) {
  const CivilDate d = to_civil(t);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", d.year, d.month, d.day);
  return buf;
}

std::string format_datetime(SimTime t) {
  const CivilDate d = to_civil(t);
  std::int64_t secs = t % kDay;
  if (secs < 0) secs += kDay;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02lld:%02lld:%02lld", d.year,
                d.month, d.day, static_cast<long long>(secs / kHour),
                static_cast<long long>((secs / kMinute) % 60),
                static_cast<long long>(secs % 60));
  return buf;
}

constinit thread_local SimClock::LaneState SimClock::lane_;

void SimClock::advance_to(SimTime t) {
  if (t < now()) {
    throw std::logic_error("SimClock::advance_to: time moved backwards (" +
                           format_datetime(t) + " < " + format_datetime(now()) +
                           ")");
  }
  if (lane_.clock == this) {
    lane_.offset = t - now_;
    return;
  }
  now_ = t;
}

SimClock::Lane::Lane(const SimClock& clock) : clock_(&clock) {
  if (lane_.clock != nullptr) {
    throw std::logic_error("SimClock::Lane: a lane is already active on this thread");
  }
  lane_.clock = &clock;
  lane_.offset = 0;
}

SimClock::Lane::~Lane() {
  (void)clock_;
  lane_.clock = nullptr;
  lane_.offset = 0;
}

}  // namespace spfail::util
