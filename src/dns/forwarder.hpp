// A caching DNS forwarder: the "site recursive resolver" many MTAs share.
//
// It implements DnsService, so a simulated MailHost can be pointed at it
// instead of directly at the authoritative server — queries it has seen
// recently are answered from cache and never reach the authority. This is
// precisely the measurement hazard §5.1's unique per-test labels neutralise,
// and spfail_repro's unique-label ablation quantifies it.
#pragma once

#include "dns/server.hpp"
#include "faults/fault.hpp"
#include "faults/retry.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"

namespace spfail::dns {

class CachingForwarder : public DnsService {
 public:
  // `upstream` and `clock` must outlive the forwarder. The clock drives the
  // upstream transport; cache expiry reads the `now` each query carries.
  CachingForwarder(DnsService& upstream, const util::SimClock& clock)
      : upstream_(upstream),
        transport_(clock),
        self_(net::Endpoint::named("forwarder")),
        upstream_endpoint_(net::Endpoint::named("upstream")) {}

  Message handle(const Message& query, const util::IpAddress& client,
                 util::SimTime now) override;

  // Attach a fault plan: upstream queries (cache hits are local and never
  // fault) face injected SERVFAILs/timeouts, retried per `retry`. Faulted
  // answers are never cached, so a later query can still succeed. Pass
  // nullptr to detach.
  void inject_faults(const faults::FaultPlan* plan,
                     faults::RetryConfig retry = {});

  std::size_t cache_hits() const noexcept { return cache_hits_; }
  std::size_t upstream_queries() const noexcept { return upstream_queries_; }
  std::size_t injected_faults() const noexcept { return injected_faults_; }
  std::size_t fault_retries() const noexcept { return fault_retries_; }
  void flush() { cache_.clear(); }

  // The wire transport upstream queries (and faulted attempts) cross.
  net::Transport& transport() noexcept { return transport_; }
  const net::Transport& transport() const noexcept { return transport_; }

 private:
  struct Entry {
    util::SimTime expires = 0;
    Message response;  // id is rewritten per client query
  };

  DnsService& upstream_;
  net::Transport transport_;
  net::Endpoint self_;
  net::Endpoint upstream_endpoint_;
  NameTypeMap<Entry> cache_;
  std::size_t cache_hits_ = 0;
  std::size_t upstream_queries_ = 0;
  faults::RetryPolicy retry_;
  std::size_t injected_faults_ = 0;
  std::size_t fault_retries_ = 0;
};

}  // namespace spfail::dns
