// The one sharded probe-batch executor (DESIGN.md §8).
//
// The campaign's two waves, its re-queue pass and the study's observation
// batches are one procedure run at three cadences: cut an index range into
// pool batches, probe each batch on private lanes, and merge the lanes back
// in batch order. ProbeBatch owns that set-up and that merge; a caller
// supplies only the per-batch body.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "dns/query_log.hpp"
#include "dns/server.hpp"
#include "faults/degradation.hpp"
#include "net/wire_trace.hpp"
#include "obs/metrics.hpp"
#include "scan/prober.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

namespace spfail::scan {

// Everything one batch accumulates on its worker, behind that worker's lanes.
struct ProbeSlice {
  dns::QueryLog log;               // the LogLane's target
  faults::DegradationReport deg;
  obs::Registry metrics;           // behind a MetricsLane when metrics are on
  // One wire capture per pass, spliced pass-major at merge time. Empty when
  // tracing is off: a body opens a WireTrace::Lane only when it is not.
  std::vector<net::WireTrace> traces;
  util::SimTime advance = 0;       // the slice's clock-lane offset
};

class ProbeBatch {
 public:
  // (prober, slice, begin, end): probe items [begin, end) of the range.
  // Batches partition the range, so a body may write results[i] in place.
  using Body =
      std::function<void(Prober&, ProbeSlice&, std::size_t, std::size_t)>;

  // `server` and `clock` must outlive the executor. `trace` and `metrics`
  // are the merge destinations; null turns that capture off.
  ProbeBatch(ProberConfig prober, dns::AuthoritativeServer& server,
             util::SimClock& clock, net::WireTrace* trace,
             obs::Registry* metrics);

  // Run `body` over every batch pool.parallel_for_batches(n, …) cuts
  // from [0, n), each under a SimClock lane, a LogLane over the slice's log
  // and (with a registry attached) a MetricsLane, with one Transport and one
  // Prober per slice. Then merge once, in batch order: advance the shared
  // clock by the sum of the lane offsets, splice the lane logs into the
  // server's log, merge the metrics, and splice the `passes` traces
  // pass-major (every slice's pass 0, then every slice's pass 1). The
  // output is therefore independent of the thread count and of which worker
  // ran which batch. Returns the slices' merged degradation counters.
  faults::DegradationReport run(util::ThreadPool& pool, std::size_t n,
                                std::size_t passes, const Body& body) const;

 private:
  ProberConfig prober_;
  dns::AuthoritativeServer& server_;
  util::SimClock& clock_;
  net::WireTrace* trace_;
  obs::Registry* metrics_;
};

}  // namespace spfail::scan
