#include "dns/resolver.hpp"

#include <algorithm>

namespace spfail::dns {

util::SimTime cache_ttl(const std::vector<ResourceRecord>& answers) {
  util::SimTime ttl = 300;
  for (const auto& rr : answers) ttl = std::min<util::SimTime>(ttl, rr.ttl);
  return ttl;
}

ResolveResult StubResolver::query(const Name& qname, RRType qtype) {
  if (cache_enabled_) {
    const auto it = cache_.find(NameTypeRef{qname.text(), qtype});
    if (it != cache_.end() && it->second.expires > clock_.now()) {
      ++cache_hits_;
      return it->second.result;
    }
  }
  ++cache_misses_;

  // The transport round-trips the query through the wire codec, applies any
  // attached fault plan, and traces both directions.
  const Message query_msg = Message::make_query(next_id_++, qname, qtype);
  Message response = transport_.exchange_with_faults(service_, query_msg, self_,
                                                     upstream_, client_);

  ResolveResult result;
  result.rcode = response.header.rcode;
  result.answers = std::move(response.answers);

  if (cache_enabled_) {
    cache_.insert_or_assign(
        NameType{qname, qtype},
        CacheEntry{clock_.now() + cache_ttl(result.answers), result});
  }
  return result;
}

std::vector<util::IpAddress> StubResolver::addresses(const Name& qname) {
  std::vector<util::IpAddress> out;
  for (const RRType type : {RRType::A, RRType::AAAA}) {
    const ResolveResult result = query(qname, type);
    for (const auto& rr : result.answers) {
      if (const auto* a = std::get_if<ARdata>(&rr.rdata)) {
        out.push_back(a->address);
      } else if (const auto* aaaa = std::get_if<AaaaRdata>(&rr.rdata)) {
        out.push_back(aaaa->address);
      }
    }
  }
  return out;
}

std::vector<MxRdata> StubResolver::mx(const Name& qname) {
  std::vector<MxRdata> out;
  const ResolveResult result = query(qname, RRType::MX);
  for (const auto& rr : result.answers) {
    if (const auto* mx = std::get_if<MxRdata>(&rr.rdata)) out.push_back(*mx);
  }
  std::sort(out.begin(), out.end(), [](const MxRdata& a, const MxRdata& b) {
    return a.preference < b.preference;
  });
  return out;
}

std::vector<std::string> StubResolver::txt(const Name& qname) {
  std::vector<std::string> out;
  const ResolveResult result = query(qname, RRType::TXT);
  for (const auto& rr : result.answers) {
    if (const auto* txt = std::get_if<TxtRdata>(&rr.rdata)) {
      out.push_back(txt->joined());
    }
  }
  return out;
}

}  // namespace spfail::dns
