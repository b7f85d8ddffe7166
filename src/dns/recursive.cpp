#include "dns/recursive.hpp"

#include <utility>

#include "obs/lane.hpp"

namespace spfail::dns {

void NameServerRegistry::add(const Name& nameserver,
                             AuthoritativeServer& server) {
  servers_[nameserver] = &server;
}

AuthoritativeServer* NameServerRegistry::find(const Name& nameserver) const {
  const auto it = servers_.find(nameserver);
  return it == servers_.end() ? nullptr : it->second;
}

RecursiveResolver::RecursiveResolver(const NameServerRegistry& registry,
                                     const Name& root_nameserver,
                                     const util::SimClock& clock,
                                     util::IpAddress client_address)
    : registry_(registry),
      root_(root_nameserver),
      clock_(clock),
      transport_(clock),
      client_(std::move(client_address)),
      self_(net::Endpoint::ip(client_)) {}

void RecursiveResolver::inject_faults(const faults::FaultPlan* plan,
                                      faults::RetryConfig retry) {
  transport_.set_fault_plan(plan);
  // The campaign's zero sentinel has no greylist knobs to inherit here; a
  // plain resolver retries a couple of times before giving up.
  if (retry.max_attempts == 0) retry.max_attempts = 3;
  retry_ = faults::RetryPolicy(retry);
}

ResolveResult RecursiveResolver::resolve(const Name& qname, RRType qtype) {
  const auto cached = answer_cache_.find(NameTypeRef{qname.text(), qtype});
  if (cached != answer_cache_.end() && cached->second.expires > clock_.now()) {
    ++stats_.cache_hits;
    ++stats_.answers_from_cache;
    obs::count("dns_cache_total",
               {{"component", "recursive"}, {"result", "hit"}});
    return cached->second.result;
  }
  obs::count("dns_cache_total",
             {{"component", "recursive"}, {"result", "miss"}});

  if (transport_.fault_plan() == nullptr ||
      !transport_.fault_plan()->enabled()) {
    return resolve_once(qname, qtype, /*lame=*/false);
  }

  // Fault-injected path: each resolution attempt draws its own decision from
  // the transport (faults model the network; the cache lookup above never
  // faults).
  ResolveResult result;
  result.rcode = Rcode::ServFail;
  for (int tried = 0;;) {
    const faults::FaultDecision fault = transport_.next_dns_fault(qname, qtype);
    ++tried;
    bool faulted = true;
    switch (fault.kind) {
      case faults::FaultKind::DnsServfail:
        ++stats_.injected_servfail;
        break;
      case faults::FaultKind::DnsTimeout:
        // The resolver cannot advance the (const) clock; the timeout
        // surfaces as a late SERVFAIL and is only counted here.
        ++stats_.injected_timeouts;
        break;
      case faults::FaultKind::LameDelegation:
        ++stats_.injected_lame;
        break;
      default:
        faulted = false;
        break;
    }
    // None of the resolver's fault kinds reach a transport exchange (even
    // the lame-delegation chase dead-ends before one), so the injection is
    // booked here rather than in Transport.
    if (faulted) {
      obs::count("net_injected_total", {{"kind", to_string(fault.kind)}});
    }
    if (!faulted) {
      return resolve_once(qname, qtype, /*lame=*/false);
    }
    if (fault.kind == faults::FaultKind::LameDelegation) {
      // The chase runs, burns queries, and dead-ends at the lame server.
      result = resolve_once(qname, qtype, /*lame=*/true);
    }
    if (!retry_.allow_retry(tried, /*budget_left=*/1)) return result;
    ++stats_.retries;
    obs::count("dns_fault_retries_total", {{"component", "recursive"}});
  }
}

ResolveResult RecursiveResolver::resolve_once(const Name& qname, RRType qtype,
                                              bool lame) {
  // An injected lame delegation: the chase reaches a server that is not
  // authoritative for the zone and offers no onward referral. One wasted
  // round-trip, then a dead end — nothing is cached.
  if (lame) {
    ++stats_.queries_sent;
    ++stats_.referrals;
    ResolveResult dead;
    dead.rcode = Rcode::ServFail;
    return dead;
  }

  // Start at the deepest delegation we already know about.
  Name current_server = root_;
  {
    Name probe = qname;
    while (!probe.empty()) {
      const auto known = delegation_cache_.find(probe);
      if (known != delegation_cache_.end()) {
        current_server = known->second;
        ++stats_.cache_hits;
        break;
      }
      probe = probe.parent();
    }
  }

  ResolveResult result;
  result.rcode = Rcode::ServFail;
  constexpr int kMaxHops = 16;
  for (int hop = 0; hop < kMaxHops; ++hop) {
    AuthoritativeServer* server = registry_.find(current_server);
    if (server == nullptr) return result;  // unreachable nameserver

    ++stats_.queries_sent;
    const Message query = Message::make_query(next_id_++, qname, qtype);
    const Message response =
        transport_.exchange(*server, query, self_,
                            net::Endpoint::named(current_server.to_string()),
                            client_);

    if (response.header.aa ||
        response.header.rcode != Rcode::NoError ||
        !response.answers.empty()) {
      // Authoritative data (or a terminal error): done.
      result.rcode = response.header.rcode;
      result.answers = response.answers;
      answer_cache_.insert_or_assign(
          NameType{qname, qtype},
          CachedAnswer{clock_.now() + cache_ttl(result.answers), result});
      return result;
    }

    // Referral: follow the first NS whose server we can reach.
    ++stats_.referrals;
    bool followed = false;
    for (const auto& ns : response.authorities) {
      const auto* rdata = std::get_if<NsRdata>(&ns.rdata);
      if (rdata == nullptr) continue;
      if (registry_.find(rdata->nameserver) == nullptr) continue;
      if (rdata->nameserver == current_server) continue;  // lame loop guard
      delegation_cache_[ns.name] = rdata->nameserver;
      current_server = rdata->nameserver;
      followed = true;
      break;
    }
    if (!followed) return result;  // dead-end referral
  }
  return result;  // too many hops
}

}  // namespace spfail::dns
