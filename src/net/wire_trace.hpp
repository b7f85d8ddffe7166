// Structured per-shard wire capture (DESIGN.md §10).
//
// A WireTrace is an append-only list of Frames. Sharded scans give every
// worker its own per-wave trace and splice them back in master (address)
// order at merge time — the same lane discipline as dns::QueryLog and
// util::SimClock, so a trace is bit-identical at any thread count.
//
// Recording is routed through a thread-local Lane, mirroring
// AuthoritativeServer::LogLane: while a Lane is active on a thread, every
// transport on that thread records into the lane's sink with the lane's
// deterministic id and anchor-relative timestamps. With no lane active,
// frames are dropped — tracing off costs nothing on the hot path.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "net/frame.hpp"
#include "util/clock.hpp"

namespace spfail::net {

class WireTrace {
 public:
  void record(Frame frame) { frames_.push_back(std::move(frame)); }

  const std::vector<Frame>& frames() const noexcept { return frames_; }
  // Move the recorded frames out, leaving the trace empty.
  std::vector<Frame> release() { return std::move(frames_); }
  std::size_t size() const noexcept { return frames_.size(); }
  bool empty() const noexcept { return frames_.empty(); }
  void clear() { frames_.clear(); }

  // Append `other`'s frames and leave it empty (merge-time reassembly).
  void splice(WireTrace&& other);

  // One JSON object per line, in recorded order.
  void write_jsonl(std::ostream& out) const;

  // RAII redirect of this thread's frame recording into `sink`. At most one
  // per thread. `lane_id` is the deterministic work-lane id stamped on every
  // frame (the test's master-order label slot — never the worker shard
  // index); `clock` supplies the anchor that frame times are taken relative
  // to, captured at construction.
  class Lane {
   public:
    Lane(WireTrace& sink, std::uint64_t lane_id, const util::SimClock& clock);
    ~Lane();
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    // True while any lane is active on the calling thread.
    static bool active() noexcept { return lane_.sink != nullptr; }

    // Record into the calling thread's active lane (no-op without one):
    // stamps the lane id and the anchor-relative time onto `frame`.
    static void record(Frame&& frame, util::SimTime now);

   private:
    struct LaneState {
      WireTrace* sink = nullptr;
      std::uint64_t id = 0;
      util::SimTime anchor = 0;
    };
    // constinit: see util::SimClock's lane state (DESIGN.md §13).
    static constinit thread_local LaneState lane_;
  };

 private:
  std::vector<Frame> frames_;
};

}  // namespace spfail::net
