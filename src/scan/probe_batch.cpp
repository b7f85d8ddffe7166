#include "scan/probe_batch.hpp"

#include <optional>
#include <utility>

#include "net/transport.hpp"
#include "obs/lane.hpp"

namespace spfail::scan {

ProbeBatch::ProbeBatch(ProberConfig prober, dns::AuthoritativeServer& server,
                       util::SimClock& clock, net::WireTrace* trace,
                       obs::Registry* metrics)
    : prober_(std::move(prober)),
      server_(server),
      clock_(clock),
      trace_(trace),
      metrics_(metrics) {}

faults::DegradationReport ProbeBatch::run(util::ThreadPool& pool,
                                          util::StealMode steal, std::size_t n,
                                          std::size_t passes,
                                          const Body& body) const {
  std::vector<ProbeSlice> slices(pool.batch_count(n));
  pool.parallel_for_batches(
      n, steal, [&](std::size_t batch, std::size_t begin, std::size_t end) {
        ProbeSlice& slice = slices[batch];
        if (trace_ != nullptr) slice.traces.resize(passes);
        util::SimClock::Lane clock_lane(clock_);
        dns::AuthoritativeServer::LogLane log_lane(server_, slice.log);
        std::optional<obs::MetricsLane> metrics_lane;
        if (metrics_ != nullptr) metrics_lane.emplace(slice.metrics);
        net::Transport transport(clock_);
        Prober prober(prober_, server_, transport);  // one per slice, reused
        body(prober, slice, begin, end);
        slice.advance = clock_lane.offset();
      });

  faults::DegradationReport deg;
  util::SimTime advance = 0;
  for (ProbeSlice& slice : slices) {
    advance += slice.advance;
    server_.query_log().splice(std::move(slice.log));
    deg.merge(slice.deg);
    if (metrics_ != nullptr) metrics_->merge(slice.metrics);
  }
  clock_.advance_by(advance);
  if (trace_ != nullptr) {
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (ProbeSlice& slice : slices) {
        trace_->splice(std::move(slice.traces[pass]));
      }
    }
  }
  return deg;
}

}  // namespace spfail::scan
