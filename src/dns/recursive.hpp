// Iterative (recursive-resolver) DNS resolution over a simulated namespace
// of delegating authoritative servers.
//
// The StubResolver talks to a single all-knowing authority — fine for the
// measurement study, whose instrument *is* that authority's log. This module
// models the fuller picture the paper's methodology reasons about (§5.1's
// cache-busting labels exist because of resolvers like this one): a root
// server delegates to TLD servers, which delegate to leaf zones; the
// RecursiveResolver chases referrals and caches what it learns.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>

#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "faults/fault.hpp"
#include "faults/retry.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"

namespace spfail::dns {

// The simulated server-side namespace: authoritative servers addressable by
// nameserver hostname (glue resolution is by name, not IP, for simplicity —
// the referral-chasing logic is identical).
class NameServerRegistry {
 public:
  // Register `server` as authoritative, reachable as `nameserver`.
  void add(const Name& nameserver, AuthoritativeServer& server);

  AuthoritativeServer* find(const Name& nameserver) const;

 private:
  std::map<Name, AuthoritativeServer*> servers_;
};

struct RecursiveStats {
  std::size_t queries_sent = 0;    // messages to authoritative servers
  std::size_t referrals = 0;       // delegation hops followed
  std::size_t cache_hits = 0;
  std::size_t answers_from_cache = 0;

  // Fault-injection accounting (all zero when no plan is attached).
  std::size_t injected_servfail = 0;
  std::size_t injected_timeouts = 0;
  std::size_t injected_lame = 0;
  std::size_t retries = 0;  // re-resolutions after an injected fault
};

class RecursiveResolver {
 public:
  // `root_nameserver` must be registered in `registry`; both must outlive
  // the resolver.
  RecursiveResolver(const NameServerRegistry& registry,
                    const Name& root_nameserver, const util::SimClock& clock,
                    util::IpAddress client_address);

  // Resolve iteratively from the root, following referrals. Rcode::ServFail
  // on a broken delegation (lame, looping, or unreachable nameserver).
  ResolveResult resolve(const Name& qname, RRType qtype);

  // Attach a fault plan: resolutions then face injected SERVFAILs, timeouts
  // and lame delegations (keyed by qname/qtype/attempt — pure, so identical
  // on every thread), each retried up to `retry.max_attempts` resolutions.
  // Injection models the network, so cached answers never fault, and faulted
  // attempts are never cached. The resolver holds a const clock, so a
  // timeout cannot advance time here — it is surfaced as a late SERVFAIL and
  // counted in stats().injected_timeouts. Pass nullptr to detach.
  void inject_faults(const faults::FaultPlan* plan,
                     faults::RetryConfig retry = {});

  const RecursiveStats& stats() const noexcept { return stats_; }
  void flush_cache() { answer_cache_.clear(); delegation_cache_.clear(); }

  // The wire transport referral-chase hops cross (one exchange per
  // authoritative server contacted).
  net::Transport& transport() noexcept { return transport_; }
  const net::Transport& transport() const noexcept { return transport_; }

 private:
  struct CachedAnswer {
    util::SimTime expires = 0;
    ResolveResult result;
  };

  // One referral chase from the best-known starting server. `lame` forces
  // the delegation walk to dead-end (an injected lame delegation).
  ResolveResult resolve_once(const Name& qname, RRType qtype, bool lame);

  const NameServerRegistry& registry_;
  Name root_;
  const util::SimClock& clock_;
  net::Transport transport_;
  util::IpAddress client_;
  net::Endpoint self_;
  std::uint16_t next_id_ = 1;
  RecursiveStats stats_;
  NameTypeMap<CachedAnswer> answer_cache_;
  // Learned delegations: zone apex -> nameserver host.
  std::unordered_map<Name, Name, NameHash> delegation_cache_;
  faults::RetryPolicy retry_;
};

}  // namespace spfail::dns
