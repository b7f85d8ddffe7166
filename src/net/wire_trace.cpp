#include "net/wire_trace.hpp"

#include <stdexcept>

namespace spfail::net {

constinit thread_local WireTrace::Lane::LaneState WireTrace::Lane::lane_;

void WireTrace::splice(WireTrace&& other) {
  if (frames_.empty()) {
    frames_ = std::move(other.frames_);
  } else {
    frames_.insert(frames_.end(),
                   std::make_move_iterator(other.frames_.begin()),
                   std::make_move_iterator(other.frames_.end()));
  }
  other.frames_.clear();
}

void WireTrace::write_jsonl(std::ostream& out) const {
  for (const Frame& frame : frames_) {
    out << to_json(frame) << '\n';
  }
}

WireTrace::Lane::Lane(WireTrace& sink, std::uint64_t lane_id,
                      const util::SimClock& clock) {
  if (lane_.sink != nullptr) {
    throw std::logic_error(
        "WireTrace::Lane: a lane is already active on this thread");
  }
  lane_.sink = &sink;
  lane_.id = lane_id;
  lane_.anchor = clock.now();
}

WireTrace::Lane::~Lane() { lane_ = LaneState{}; }

void WireTrace::Lane::record(Frame&& frame, util::SimTime now) {
  if (lane_.sink == nullptr) return;
  frame.time = now - lane_.anchor;
  frame.lane = lane_.id;
  lane_.sink->record(std::move(frame));
}

}  // namespace spfail::net
