// The unified simulated-network transport (DESIGN.md §10).
//
// Everything that crosses the simulated wire goes through a Transport:
// SMTP dialogs as SmtpChannels, DNS lookups as exchange() calls. The
// transport owns the three concerns that used to be scattered per call site:
//
//   * time — every frame charges a configurable cost to the simulation
//     clock (the scanner's "each SMTP exchange costs a little simulated
//     time" rule lives here, in one place);
//   * faults — tempfails, connection drops and latency spikes preempt an
//     SmtpChannel at the configured stage, and DNS fault decisions
//     (SERVFAIL / timeout / lame delegation) are drawn and applied behind
//     exchange_with_faults(), replacing the old FaultInjectingService
//     decorator and the inline fault branches in scan::Prober;
//   * capture — every frame is offered to the thread's WireTrace::Lane
//     (and an optional per-channel mirror, which is how smtp::Client
//     transcripts are recorded).
//
// A Transport holding a const clock (resolvers) can carry zero-cost frames
// only; charging a positive cost without a mutable clock is a logic error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "dns/server.hpp"
#include "faults/fault.hpp"
#include "net/wire_trace.hpp"
#include "smtp/server.hpp"
#include "util/clock.hpp"

namespace spfail::net {

struct TransportConfig {
  // Simulated seconds charged per SMTP dialog frame exchanged (command plus
  // its reply — one network round trip). The scanner's historical rule.
  util::SimTime smtp_frame_cost = 1;
  // Simulated seconds charged per DNS exchange. 0 keeps resolver paths
  // time-neutral, as they always were.
  util::SimTime dns_frame_cost = 0;
  // Optional fault plan consulted by next_dns_fault(); may also be attached
  // later via set_fault_plan(). Not owned.
  const faults::FaultPlan* fault_plan = nullptr;
};

class Transport;

// One SMTP dialog over a transport. Wraps a ServerSession: greeting() and
// send() charge the per-frame cost, record wire frames, and apply the fault
// decision the channel was opened with — an injected tempfail or drop fires
// once, at its configured stage, and the command never reaches the MTA.
class SmtpChannel {
 public:
  SmtpChannel(Transport& transport, smtp::ServerSession& session,
              Endpoint client, Endpoint server, faults::FaultDecision fault);

  // The server's opening banner. A Helo-stage fault fires here (the
  // connection dies before the banner arrives).
  smtp::Reply greeting();

  // Send one dialog line and return the server's reply (Reply{0} mid-DATA).
  smtp::Reply send(const std::string& line);

  bool closed() const noexcept { return session_.closed(); }

  // True once the channel's fault dropped the connection mid-dialog.
  bool dropped() const noexcept { return dropped_; }
  // True once the channel's fault synthesised a tempfail reply. Sticky —
  // callers are expected to abandon the dialog on the exchange that set it.
  bool last_injected() const noexcept { return last_injected_; }

  // Mirror every frame (with absolute timestamps) into `trace` regardless of
  // any thread lane — the transcript hook for smtp::Client. Pass nullptr to
  // detach.
  void set_mirror(WireTrace* mirror) noexcept { mirror_ = mirror; }

 private:
  bool tracing() const noexcept;
  void emit(Frame&& frame);
  void emit_command(const std::string& verb, const std::string& line);
  void emit_reply(const smtp::Reply& reply, bool injected);
  smtp::Reply inject();

  Transport& transport_;
  smtp::ServerSession& session_;
  Endpoint client_;
  Endpoint server_;
  faults::FaultDecision fault_;
  bool armed_;  // the fault has not fired yet
  bool dropped_ = false;
  bool last_injected_ = false;
  WireTrace* mirror_ = nullptr;
};

class Transport {
 public:
  // Clockless transport: frames are free and untimed (in-memory dialogs,
  // e.g. smtp::Client transcripts) — both frame costs are forced to 0.
  Transport() { config_.smtp_frame_cost = 0; }

  // Full transport over the simulation clock: frames advance time.
  explicit Transport(util::SimClock& clock, TransportConfig config = {})
      : clock_(&clock), ro_clock_(&clock), config_(config),
        plan_(config.fault_plan) {}

  // Read-only-clock transport (resolver paths): frames are timestamped but
  // cannot advance time; a positive frame cost throws.
  explicit Transport(const util::SimClock& clock, TransportConfig config = {})
      : ro_clock_(&clock), config_(config), plan_(config.fault_plan) {}

  const TransportConfig& config() const noexcept { return config_; }
  util::SimTime now() const noexcept {
    return ro_clock_ != nullptr ? ro_clock_->now() : 0;
  }

  // Attach (or detach, with nullptr) the fault plan consulted by
  // next_dns_fault(). Attempt counters persist across re-attachment.
  void set_fault_plan(const faults::FaultPlan* plan) noexcept { plan_ = plan; }
  const faults::FaultPlan* fault_plan() const noexcept { return plan_; }

  // Open an SMTP dialog carrying `fault` (a LatencySpike stretches the
  // dialog right here, at connection setup; tempfails/drops arm the channel).
  SmtpChannel open(smtp::ServerSession& session, Endpoint client,
                   Endpoint server, const faults::FaultDecision& fault = {});

  // One DNS round trip: the query is wire-encoded, decoded and handed to
  // `service` (the substrate sees real messages), and both directions are
  // traced. A DNS-kind `fault` eats the query on the wire: the service is
  // never reached and a SERVFAIL is synthesised (and counted in injected()).
  dns::Message exchange(dns::DnsService& service, const dns::Message& query,
                        const Endpoint& src, const Endpoint& dst,
                        const util::IpAddress& client,
                        const faults::FaultDecision& fault = {});

  // Draw the next fault decision for (qname, qtype) from the attached plan,
  // advancing the per-key attempt counter. Inert (and counter-neutral) when
  // no enabled plan is attached.
  faults::FaultDecision next_dns_fault(const dns::Name& qname,
                                       dns::RRType qtype);

  // exchange() with next_dns_fault() applied — the drop-in replacement for
  // the old FaultInjectingService decorator.
  dns::Message exchange_with_faults(dns::DnsService& service,
                                    const dns::Message& query,
                                    const Endpoint& src, const Endpoint& dst,
                                    const util::IpAddress& client);

  // DNS faults this transport has injected.
  std::size_t injected() const noexcept { return injected_; }

  // Advance the clock by `cost` simulated seconds (no-op for cost <= 0;
  // logic_error without a mutable clock).
  void charge(util::SimTime cost);
  void charge_smtp() { charge(config_.smtp_frame_cost); }

 private:
  util::SimClock* clock_ = nullptr;
  const util::SimClock* ro_clock_ = nullptr;
  TransportConfig config_;
  const faults::FaultPlan* plan_ = nullptr;
  std::size_t injected_ = 0;
  dns::NameTypeMap<std::uint64_t> attempt_counters_;
};

}  // namespace spfail::net
