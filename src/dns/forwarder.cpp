#include "dns/forwarder.hpp"

#include "dns/resolver.hpp"
#include "obs/lane.hpp"

namespace spfail::dns {

void CachingForwarder::inject_faults(const faults::FaultPlan* plan,
                                     faults::RetryConfig retry) {
  transport_.set_fault_plan(plan);
  if (retry.max_attempts == 0) retry.max_attempts = 3;
  retry_ = faults::RetryPolicy(retry);
}

Message CachingForwarder::handle(const Message& query,
                                 const util::IpAddress& client,
                                 util::SimTime now) {
  if (query.questions.size() != 1) {
    return Message::make_response(query, Rcode::FormErr);
  }
  const Question& q = query.questions.front();

  const auto it = cache_.find(NameTypeRef{q.qname.text(), q.qtype});
  if (it != cache_.end() && it->second.expires > now) {
    ++cache_hits_;
    obs::count("dns_cache_total",
               {{"component", "forwarder"}, {"result", "hit"}});
    Message response = it->second.response;
    response.header.id = query.header.id;  // match the client's transaction
    return response;
  }

  // Faults live on the upstream path, after the cache miss. A faulted
  // attempt is retried per the policy; if every attempt faults, the client
  // sees SERVFAIL and nothing is cached. Each attempt — faulted or not —
  // crosses the transport, so a wire trace shows the retries.
  for (int tried = 0;;) {
    const faults::FaultDecision fault =
        transport_.next_dns_fault(q.qname, q.qtype);
    if (!fault.is_dns_fault()) break;  // this attempt reaches the upstream
    ++tried;
    ++injected_faults_;
    if (!retry_.allow_retry(tried, /*budget_left=*/1)) {
      return transport_.exchange(upstream_, query, self_, upstream_endpoint_,
                                 client, fault);
    }
    transport_.exchange(upstream_, query, self_, upstream_endpoint_, client,
                        fault);
    ++fault_retries_;
    obs::count("dns_fault_retries_total", {{"component", "forwarder"}});
  }

  ++upstream_queries_;
  obs::count("dns_cache_total",
             {{"component", "forwarder"}, {"result", "miss"}});
  const Message response =
      transport_.exchange(upstream_, query, self_, upstream_endpoint_, client);

  cache_.insert_or_assign(NameType{q.qname, q.qtype},
                          Entry{now + cache_ttl(response.answers), response});
  return response;
}

}  // namespace spfail::dns
