// Stub resolver with a positive/negative cache.
//
// Each simulated MTA owns a StubResolver pointing at the simulation's
// authoritative service. The cache matters to the study design: the paper's
// per-test unique labels exist precisely so that no recursive cache can
// absorb the measurement queries (ablated in spfail_repro's unique-label
// ablation).
#pragma once

#include <memory>

#include "dns/server.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"

namespace spfail::dns {

struct ResolveResult {
  Rcode rcode = Rcode::ServFail;
  std::vector<ResourceRecord> answers;

  bool ok() const noexcept { return rcode == Rcode::NoError; }
};

// How long the stub, forwarder and recursive answer caches keep a response:
// its smallest answer TTL, or 300 s when it has no answer (negative caching).
util::SimTime cache_ttl(const std::vector<ResourceRecord>& answers);

class StubResolver {
 public:
  // `clock` and `service` must outlive the resolver.
  StubResolver(DnsService& service, const util::SimClock& clock,
               util::IpAddress client_address, bool enable_cache = true)
      : service_(service),
        clock_(clock),
        transport_(clock),
        client_(client_address),
        self_(net::Endpoint::ip(client_address)),
        upstream_(net::Endpoint::named("authority")),
        cache_enabled_(enable_cache) {}

  ResolveResult query(const Name& qname, RRType qtype);

  // The wire transport cache misses go out on. Attach a fault plan here
  // (transport().set_fault_plan) to make this resolver's upstream queries
  // face injected SERVFAILs — the stub has no retry loop, so a faulted
  // query surfaces directly (the old FaultInjectingService topology).
  net::Transport& transport() noexcept { return transport_; }
  const net::Transport& transport() const noexcept { return transport_; }

  // Typed conveniences, each following CNAME records present in the answer.
  std::vector<util::IpAddress> addresses(const Name& qname);  // A + AAAA
  std::vector<MxRdata> mx(const Name& qname);
  std::vector<std::string> txt(const Name& qname);

  std::size_t cache_hits() const noexcept { return cache_hits_; }
  std::size_t cache_misses() const noexcept { return cache_misses_; }
  std::size_t queries_sent() const noexcept { return cache_misses_; }
  void flush_cache() { cache_.clear(); }

  const util::IpAddress& client_address() const noexcept { return client_; }

 private:
  struct CacheEntry {
    util::SimTime expires = 0;
    ResolveResult result;
  };

  DnsService& service_;
  const util::SimClock& clock_;
  net::Transport transport_;
  util::IpAddress client_;
  net::Endpoint self_;
  net::Endpoint upstream_;
  bool cache_enabled_;
  NameTypeMap<CacheEntry> cache_;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  std::uint16_t next_id_ = 1;
};

}  // namespace spfail::dns
