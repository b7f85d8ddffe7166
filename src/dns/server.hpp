// Authoritative DNS server.
//
// Serves static zones plus "dynamic responders" — suffix-keyed callbacks that
// synthesise records on the fly. The SPFail measurement apparatus registers a
// responder for spf-test.dns-lab.org that echoes the per-target <id>/<suite>
// labels back inside a templated SPF policy (see scan/test_responder.hpp).
// Every received query is appended to the QueryLog, which is the measurement
// instrument for the whole study.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dns/message.hpp"
#include "dns/query_log.hpp"
#include "dns/zone.hpp"

namespace spfail::dns {

// Anything that can answer DNS queries in the simulation.
class DnsService {
 public:
  virtual ~DnsService() = default;

  // Handle one query message from `client` at simulated time `now`.
  virtual Message handle(const Message& query, const util::IpAddress& client,
                         util::SimTime now) = 0;
};

class AuthoritativeServer : public DnsService {
 public:
  // Dynamic responder: return records for (qname, qtype), or nullopt for
  // NXDOMAIN, or an empty vector for NODATA.
  using DynamicResponder = std::function<std::optional<std::vector<ResourceRecord>>(
      const Name& qname, RRType qtype)>;

  // Zones are matched longest-suffix-first.
  void add_zone(Zone zone);
  Zone* find_zone(const Name& origin);

  void add_responder(const Name& suffix, DynamicResponder responder);

  Message handle(const Message& query, const util::IpAddress& client,
                 util::SimTime now) override;

  // The log queries are recorded to *on the calling thread*: the
  // authoritative log normally, or the thread's LogLane while one is active.
  // Sharded scan workers each route their probes' queries into a private
  // lane log and splice it into the authoritative log at merge time, so
  // recording never contends across threads.
  QueryLog& query_log() noexcept { return active_log(); }
  const QueryLog& query_log() const noexcept { return active_log(); }

  // The authoritative log regardless of any lane on this thread (merge and
  // post-run forensics use this).
  QueryLog& authoritative_log() noexcept { return log_; }
  const QueryLog& authoritative_log() const noexcept { return log_; }

  // RAII redirect of this thread's query recording to `lane`. At most one
  // per thread; queries to *other* servers are unaffected.
  class LogLane {
   public:
    LogLane(const AuthoritativeServer& server, QueryLog& lane);
    ~LogLane();
    LogLane(const LogLane&) = delete;
    LogLane& operator=(const LogLane&) = delete;
  };

 private:
  QueryLog& active_log() const noexcept {
    return lane_.server == this ? *lane_.log : log_;
  }

  struct LaneState {
    const AuthoritativeServer* server = nullptr;
    QueryLog* log = nullptr;
  };
  // constinit: see util::SimClock's lane state (DESIGN.md §13).
  static constinit thread_local LaneState lane_;

  // Keyed by reversed label count via std::map<Name, ...> won't give longest
  // match directly; store and scan (zone counts here are small).
  std::vector<Zone> zones_;
  std::vector<std::pair<Name, DynamicResponder>> responders_;
  mutable QueryLog log_;
};

}  // namespace spfail::dns
