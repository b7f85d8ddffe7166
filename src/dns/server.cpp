#include "dns/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spfail::dns {

constinit thread_local AuthoritativeServer::LaneState
    AuthoritativeServer::lane_;

AuthoritativeServer::LogLane::LogLane(const AuthoritativeServer& server,
                                      QueryLog& lane) {
  if (lane_.server != nullptr) {
    throw std::logic_error(
        "AuthoritativeServer::LogLane: a lane is already active on this thread");
  }
  lane_.server = &server;
  lane_.log = &lane;
}

AuthoritativeServer::LogLane::~LogLane() {
  lane_.server = nullptr;
  lane_.log = nullptr;
}

void AuthoritativeServer::add_zone(Zone zone) {
  zones_.push_back(std::move(zone));
  // Longest origin first so the most specific zone wins.
  std::stable_sort(zones_.begin(), zones_.end(), [](const Zone& a, const Zone& b) {
    return a.origin().label_count() > b.origin().label_count();
  });
}

Zone* AuthoritativeServer::find_zone(const Name& origin) {
  for (auto& z : zones_) {
    if (z.origin() == origin) return &z;
  }
  return nullptr;
}

void AuthoritativeServer::add_responder(const Name& suffix,
                                        DynamicResponder responder) {
  responders_.emplace_back(suffix, std::move(responder));
  std::stable_sort(responders_.begin(), responders_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.label_count() > b.first.label_count();
                   });
}

Message AuthoritativeServer::handle(const Message& query,
                                    const util::IpAddress& client,
                                    util::SimTime now) {
  if (query.questions.size() != 1) {
    return Message::make_response(query, Rcode::FormErr);
  }
  const Question& q = query.questions.front();
  active_log().record(QueryLogEntry{now, client, q.qname, q.qtype});

  // Dynamic responders take precedence (the measurement domain is synthetic).
  for (const auto& [suffix, responder] : responders_) {
    if (!q.qname.is_subdomain_of(suffix)) continue;
    auto records = responder(q.qname, q.qtype);
    if (!records.has_value()) {
      return Message::make_response(query, Rcode::NxDomain);
    }
    Message response = Message::make_response(query, Rcode::NoError);
    response.answers = std::move(*records);
    return response;
  }

  for (const auto& zone : zones_) {
    if (!q.qname.is_subdomain_of(zone.origin())) continue;

    // Delegation check first: at or below a zone cut, answer with a
    // referral (authority section NS + any in-zone glue), not with data.
    if (const auto delegation = zone.delegation_for(q.qname)) {
      Message response = Message::make_response(query, Rcode::NoError);
      response.header.aa = false;
      response.authorities = *delegation;
      for (const auto& ns : *delegation) {
        const Name& host = std::get<NsRdata>(ns.rdata).nameserver;
        if (!host.is_subdomain_of(zone.origin())) continue;
        const LookupResult glue = zone.lookup(host, RRType::A);
        for (const auto& rr : glue.records) response.additionals.push_back(rr);
      }
      return response;
    }

    LookupResult result = zone.lookup(q.qname, q.qtype);
    switch (result.status) {
      case LookupResult::Status::Success: {
        Message response = Message::make_response(query, Rcode::NoError);
        response.answers = std::move(result.records);
        return response;
      }
      case LookupResult::Status::NoData:
        return Message::make_response(query, Rcode::NoError);
      case LookupResult::Status::NxDomain:
        return Message::make_response(query, Rcode::NxDomain);
    }
  }
  return Message::make_response(query, Rcode::Refused);
}

}  // namespace spfail::dns
