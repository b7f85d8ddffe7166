#include "snapshot/fields.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <utility>

#include "mta/host.hpp"
#include "snapshot/enums.hpp"

namespace spfail::snapshot {

namespace {

void put_name(Writer& w, const dns::Name& name) {
  w.str(name.empty() ? std::string_view{} : name.to_string());
}

dns::Name get_name(Reader& r) {
  const std::string text = r.str();
  return text.empty() ? dns::Name::root() : dns::Name::lenient(text);
}

void put_behaviors(Writer& w, const std::set<spfvuln::SpfBehavior>& behaviors) {
  w.u32(static_cast<std::uint32_t>(behaviors.size()));
  for (const auto b : behaviors) w.u8(encode_enum(b));
}

std::set<spfvuln::SpfBehavior> get_behaviors(Reader& r) {
  std::set<spfvuln::SpfBehavior> behaviors;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    behaviors.insert(decode_spf_behavior(r.u8()));
  }
  return behaviors;
}

}  // namespace

std::uint64_t payload_checksum(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_address(Writer& w, const util::IpAddress& address) {
  w.u8(encode_enum(address.family()));
  for (const std::uint8_t byte : address.bytes()) w.u8(byte);
}

util::IpAddress get_address(Reader& r) {
  const auto family = decode_family(r.u8());
  std::array<std::uint8_t, 16> bytes{};
  for (auto& byte : bytes) byte = r.u8();
  if (family == util::IpAddress::Family::V4) {
    return util::IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
  }
  return util::IpAddress::v6(bytes);
}

void put_probe_result(Writer& w, const scan::ProbeResult& result) {
  w.u8(encode_enum(result.kind));
  w.u8(encode_enum(result.status));
  put_address(w, result.target);
  put_name(w, result.mail_from_domain);
  put_behaviors(w, result.behaviors);
  w.boolean(result.saw_policy_fetch);
  w.i64(result.failing_code);
  w.str(result.accepted_username);
  w.u8(encode_enum(result.injected));
}

scan::ProbeResult get_probe_result(Reader& r) {
  scan::ProbeResult result;
  result.kind = decode_test_kind(r.u8());
  result.status = decode_probe_status(r.u8());
  result.target = get_address(r);
  result.mail_from_domain = get_name(r);
  result.behaviors = get_behaviors(r);
  result.saw_policy_fetch = r.boolean();
  result.failing_code = static_cast<int>(r.i64());
  result.accepted_username = r.str();
  result.injected = decode_fault_kind(r.u8());
  return result;
}

void put_outcome(Writer& w, const scan::AddressOutcome& outcome) {
  put_address(w, outcome.address);
  w.boolean(outcome.nomsg.has_value());
  if (outcome.nomsg) put_probe_result(w, *outcome.nomsg);
  w.boolean(outcome.blankmsg.has_value());
  if (outcome.blankmsg) put_probe_result(w, *outcome.blankmsg);
  w.u8(encode_enum(outcome.verdict));
  put_behaviors(w, outcome.behaviors);
  w.i64(outcome.probe_attempts);
  w.i64(outcome.retries_used);
  w.boolean(outcome.saw_transient);
}

scan::AddressOutcome get_outcome(Reader& r) {
  scan::AddressOutcome outcome;
  outcome.address = get_address(r);
  if (r.boolean()) outcome.nomsg = get_probe_result(r);
  if (r.boolean()) outcome.blankmsg = get_probe_result(r);
  outcome.verdict = decode_address_verdict(r.u8());
  outcome.behaviors = get_behaviors(r);
  outcome.probe_attempts = static_cast<int>(r.i64());
  outcome.retries_used = static_cast<int>(r.i64());
  outcome.saw_transient = r.boolean();
  return outcome;
}

void put_degradation(Writer& w, const faults::DegradationReport& deg) {
  w.f64(deg.configured_rate);
  w.u64(deg.probe_attempts);
  w.u64(deg.retries);
  w.u64(deg.injected_tempfail);
  w.u64(deg.injected_drop);
  w.u64(deg.injected_latency);
  w.u64(deg.injected_dns);
  w.i64(deg.latency_injected);
  w.u64(deg.transient_addresses);
  w.u64(deg.recovered);
  w.u64(deg.exhausted);
  w.u64(deg.breaker_trips);
  w.u64(deg.breaker_skipped);
  w.u64(deg.requeued);
  w.u64(deg.requeue_recovered);
  w.u64(deg.addresses_tested);
  w.u64(deg.conclusive);
}

faults::DegradationReport get_degradation(Reader& r) {
  faults::DegradationReport deg;
  deg.configured_rate = r.f64();
  deg.probe_attempts = r.u64();
  deg.retries = r.u64();
  deg.injected_tempfail = r.u64();
  deg.injected_drop = r.u64();
  deg.injected_latency = r.u64();
  deg.injected_dns = r.u64();
  deg.latency_injected = r.i64();
  deg.transient_addresses = r.u64();
  deg.recovered = r.u64();
  deg.exhausted = r.u64();
  deg.breaker_trips = r.u64();
  deg.breaker_skipped = r.u64();
  deg.requeued = r.u64();
  deg.requeue_recovered = r.u64();
  deg.addresses_tested = r.u64();
  deg.conclusive = r.u64();
  return deg;
}

void put_report(Writer& w, const scan::CampaignReport& report) {
  w.str(report.suite_label);
  // Canonical encoding: outcomes in ascending address order, not map order.
  const auto sorted = report.sorted_outcomes();
  w.u64(sorted.size());
  for (const auto* outcome : sorted) put_outcome(w, *outcome);
  w.u64(report.domains.size());
  for (const auto& domain : report.domains) {
    w.str(domain.domain);
    w.u64(domain.addresses.size());
    for (const auto& address : domain.addresses) put_address(w, address);
    w.boolean(domain.any_refused);
    w.boolean(domain.any_measured);
    w.boolean(domain.vulnerable);
    put_behaviors(w, domain.behaviors);
  }
  put_degradation(w, report.degradation);
}

scan::CampaignReport get_report(Reader& r) {
  scan::CampaignReport report;
  report.suite_label = r.str();
  const std::uint64_t outcomes = r.u64();
  util::IpAddress previous;
  for (std::uint64_t i = 0; i < outcomes; ++i) {
    scan::AddressOutcome outcome = get_outcome(r);
    const util::IpAddress address = outcome.address;
    // put_report writes strictly ascending addresses. A repeat would collapse
    // in the map and a reordering would re-encode differently, so either
    // means these bytes are not the codec's own.
    if (i > 0 && !(previous < address)) {
      throw SnapshotError("outcome " + address.to_string() +
                          " does not follow " + previous.to_string() +
                          " in strictly ascending address order");
    }
    previous = address;
    report.addresses.emplace(address, std::move(outcome));
  }
  const std::uint64_t domains = r.u64();
  for (std::uint64_t i = 0; i < domains; ++i) {
    scan::DomainOutcome domain;
    domain.domain = r.str();
    const std::uint64_t addresses = r.u64();
    for (std::uint64_t j = 0; j < addresses; ++j) {
      domain.addresses.push_back(get_address(r));
    }
    domain.any_refused = r.boolean();
    domain.any_measured = r.boolean();
    domain.vulnerable = r.boolean();
    domain.behaviors = get_behaviors(r);
    report.domains.push_back(std::move(domain));
  }
  report.degradation = get_degradation(r);
  return report;
}

void put_frame(Writer& w, const net::Frame& frame) {
  w.i64(frame.time);
  w.u64(frame.lane);
  w.str(frame.src);
  w.str(frame.dst);
  w.u8(encode_enum(frame.direction));
  w.u8(encode_enum(frame.kind));
  w.str(frame.verb);
  w.i64(frame.code);
  w.str(frame.text);
  w.str(frame.qname);
  w.str(frame.qtype);
  w.str(frame.rcode);
  w.u64(frame.answers);
  w.boolean(frame.injected);
}

net::Frame get_frame(Reader& r) {
  net::Frame frame;
  frame.time = r.i64();
  frame.lane = r.u64();
  frame.src = r.str();
  frame.dst = r.str();
  frame.direction = decode_direction(r.u8());
  frame.kind = decode_frame_kind(r.u8());
  frame.verb = r.str();
  frame.code = static_cast<int>(r.i64());
  frame.text = r.str();
  frame.qname = r.str();
  frame.qtype = r.str();
  frame.rcode = r.str();
  frame.answers = r.u64();
  frame.injected = r.boolean();
  return frame;
}

void put_host_state(Writer& w, const StudySnapshot::HostState& host) {
  put_address(w, host.address);
  w.u64(host.greylist_seen.size());
  for (const auto& [client, first_try] : host.greylist_seen) {
    w.str(client);
    w.i64(first_try);
  }
  for (const std::uint64_t word : host.flaky_rng) w.u64(word);
}

StudySnapshot::HostState get_host_state(Reader& r) {
  StudySnapshot::HostState host;
  host.address = get_address(r);
  const std::uint64_t entries = r.u64();
  for (std::uint64_t j = 0; j < entries; ++j) {
    std::string client = r.str();
    const util::SimTime first_try = r.i64();
    host.greylist_seen.emplace_back(std::move(client), first_try);
  }
  for (auto& word : host.flaky_rng) word = r.u64();
  return host;
}

StudySnapshot::HostState capture_host_state(const util::IpAddress& address,
                                            const mta::MailHost& host) {
  StudySnapshot::HostState hs;
  hs.address = address;
  // The in-memory map keys addresses by value (DESIGN.md §14) but the wire
  // format keeps textual keys; re-sort after conversion, because numeric
  // address order is not lexical order ("11.0.0.2" > "11.0.0.10" as text)
  // and the snapshot bytes must match pre-§14 writers exactly.
  hs.greylist_seen.reserve(host.greylist_seen().size());
  for (const auto& [client, first_seen] : host.greylist_seen()) {
    hs.greylist_seen.emplace_back(client.to_string(), first_seen);
  }
  std::sort(hs.greylist_seen.begin(), hs.greylist_seen.end());
  hs.flaky_rng = host.flaky_rng_state();
  return hs;
}

}  // namespace spfail::snapshot
