#include "net/transport.hpp"

#include <stdexcept>

#include "obs/lane.hpp"
#include "util/rng.hpp"

namespace spfail::net {

namespace {

// The command verb: the first token of the line ("MAIL FROM:<x>" -> "MAIL").
std::string verb_of(const std::string& line) {
  const std::size_t space = line.find(' ');
  return space == std::string::npos ? line : line.substr(0, space);
}

std::optional<faults::SmtpStage> stage_of(const std::string& verb) {
  if (verb == "EHLO" || verb == "HELO") return faults::SmtpStage::Helo;
  if (verb == "MAIL") return faults::SmtpStage::MailFrom;
  if (verb == "RCPT") return faults::SmtpStage::RcptTo;
  if (verb == "DATA") return faults::SmtpStage::Data;
  return std::nullopt;
}

}  // namespace

SmtpChannel::SmtpChannel(Transport& transport, smtp::ServerSession& session,
                         Endpoint client, Endpoint server,
                         faults::FaultDecision fault)
    : transport_(transport),
      session_(session),
      client_(std::move(client)),
      server_(std::move(server)),
      fault_(fault),
      armed_(fault.fails_probe()) {}

bool SmtpChannel::tracing() const noexcept {
  return mirror_ != nullptr || WireTrace::Lane::active();
}

void SmtpChannel::emit(Frame&& frame) {
  if (mirror_ != nullptr) {
    Frame copy = frame;
    copy.time = transport_.now();
    mirror_->record(std::move(copy));
  }
  WireTrace::Lane::record(std::move(frame), transport_.now());
}

void SmtpChannel::emit_command(const std::string& verb,
                               const std::string& line) {
  if (!tracing()) return;
  Frame frame;
  frame.src = client_.label;
  frame.dst = server_.label;
  frame.direction = Direction::ClientToServer;
  frame.kind = FrameKind::SmtpCommand;
  frame.verb = verb;
  frame.text = line;
  emit(std::move(frame));
}

void SmtpChannel::emit_reply(const smtp::Reply& reply, bool injected) {
  if (!tracing()) return;
  Frame frame;
  frame.src = server_.label;
  frame.dst = client_.label;
  frame.direction = Direction::ServerToClient;
  frame.kind = FrameKind::SmtpReply;
  frame.code = reply.code;
  frame.text = reply.code == smtp::kNoReplyCode ? reply.text : reply.line();
  frame.injected = injected;
  emit(std::move(frame));
}

smtp::Reply SmtpChannel::inject() {
  obs::count("net_injected_total", {{"kind", to_string(fault_.kind)}});
  if (fault_.kind == faults::FaultKind::SmtpTempfail) {
    last_injected_ = true;
    const smtp::Reply reply{fault_.smtp_code,
                            "transient network failure (injected)"};
    emit_reply(reply, /*injected=*/true);
    return reply;
  }
  // ConnectionDrop: the TCP connection dies mid-dialog; no reply ever comes.
  session_.force_close();
  dropped_ = true;
  const smtp::Reply silence{smtp::kNoReplyCode,
                            "connection dropped (injected)"};
  emit_reply(silence, /*injected=*/true);
  return silence;
}

smtp::Reply SmtpChannel::greeting() {
  transport_.charge_smtp();
  obs::count("net_frames_total", {{"proto", "smtp"}, {"dir", "s2c"}});
  obs::observe("net_hop_sim_latency", transport_.config().smtp_frame_cost,
               {{"proto", "smtp"}});
  if (armed_ && fault_.stage == faults::SmtpStage::Helo) {
    armed_ = false;
    return inject();
  }
  const smtp::Reply banner = session_.greeting();
  emit_reply(banner, /*injected=*/false);
  return banner;
}

smtp::Reply SmtpChannel::send(const std::string& line) {
  const std::string verb = session_.in_data() ? std::string{} : verb_of(line);
  transport_.charge_smtp();
  obs::count("net_frames_total", {{"proto", "smtp"}, {"dir", "c2s"}});
  obs::observe("net_hop_sim_latency", transport_.config().smtp_frame_cost,
               {{"proto", "smtp"}});
  emit_command(verb, line);
  const auto stage = stage_of(verb);
  if (armed_ && stage.has_value() && *stage == fault_.stage) {
    armed_ = false;
    return inject();
  }
  const smtp::Reply reply = session_.respond(line);
  if (reply.code != smtp::kNoReplyCode) {
    emit_reply(reply, /*injected=*/false);
  }
  return reply;
}

SmtpChannel Transport::open(smtp::ServerSession& session, Endpoint client,
                            Endpoint server,
                            const faults::FaultDecision& fault) {
  // A latency spike stretches the dialog but changes nothing else; it is
  // charged up front, at connection setup.
  if (fault.kind == faults::FaultKind::LatencySpike) {
    charge(fault.latency);
    obs::count("net_injected_total", {{"kind", to_string(fault.kind)}});
    obs::observe("net_injected_latency_sim_seconds", fault.latency);
  }
  return SmtpChannel(*this, session, std::move(client), std::move(server),
                     fault);
}

dns::Message Transport::exchange(dns::DnsService& service,
                                 const dns::Message& query,
                                 const Endpoint& src, const Endpoint& dst,
                                 const util::IpAddress& client,
                                 const faults::FaultDecision& fault) {
  charge(config_.dns_frame_cost);
  obs::count("net_frames_total", {{"proto", "dns"}, {"dir", "c2s"}});
  obs::count("net_frames_total", {{"proto", "dns"}, {"dir", "s2c"}});
  obs::observe("net_hop_sim_latency", config_.dns_frame_cost,
               {{"proto", "dns"}});
  const bool tracing = WireTrace::Lane::active();
  const dns::Question* q =
      query.questions.empty() ? nullptr : &query.questions.front();
  if (tracing && q != nullptr) {
    Frame frame;
    frame.src = src.label;
    frame.dst = dst.label;
    frame.direction = Direction::ClientToServer;
    frame.kind = FrameKind::DnsQuery;
    frame.qname = q->qname.to_string();
    frame.qtype = to_string(q->qtype);
    WireTrace::Lane::record(std::move(frame), now());
  }

  dns::Message response;
  bool injected = false;
  if (fault.is_dns_fault()) {
    // The network ate the query: the service is never reached.
    ++injected_;
    injected = true;
    obs::count("net_injected_total", {{"kind", to_string(fault.kind)}});
    response = dns::Message::make_response(query, dns::Rcode::ServFail);
  } else {
    // Round-trip through the wire codec so the substrate sees real messages.
    response = service.handle(dns::decode(dns::encode(query)), client, now());
  }
  obs::count("dns_rcode_total", {{"rcode", to_string(response.header.rcode)}});

  if (tracing && q != nullptr) {
    Frame frame;
    frame.src = dst.label;
    frame.dst = src.label;
    frame.direction = Direction::ServerToClient;
    frame.kind = FrameKind::DnsResponse;
    frame.qname = q->qname.to_string();
    frame.qtype = to_string(q->qtype);
    frame.rcode = to_string(response.header.rcode);
    frame.answers = response.answers.size();
    frame.injected = injected;
    WireTrace::Lane::record(std::move(frame), now());
  }
  return response;
}

faults::FaultDecision Transport::next_dns_fault(const dns::Name& qname,
                                                dns::RRType qtype) {
  if (plan_ == nullptr || !plan_->enabled()) return {};
  auto counter = attempt_counters_.find(dns::NameTypeRef{qname.text(), qtype});
  if (counter == attempt_counters_.end()) {
    counter = attempt_counters_.emplace(dns::NameType{qname, qtype}, 0).first;
  }
  // Keyed on the presentation form to_string() gives ("." for the root).
  const std::string_view key = qname.empty() ? "." : qname.text();
  return plan_->dns_decision(util::fnv1a(key),
                             static_cast<std::uint16_t>(qtype),
                             counter->second++);
}

dns::Message Transport::exchange_with_faults(dns::DnsService& service,
                                             const dns::Message& query,
                                             const Endpoint& src,
                                             const Endpoint& dst,
                                             const util::IpAddress& client) {
  faults::FaultDecision fault;
  if (query.questions.size() == 1) {
    const dns::Question& q = query.questions.front();
    fault = next_dns_fault(q.qname, q.qtype);
  }
  return exchange(service, query, src, dst, client, fault);
}

void Transport::charge(util::SimTime cost) {
  if (cost <= 0) return;
  if (clock_ == nullptr) {
    throw std::logic_error(
        "net::Transport: a positive frame cost needs a mutable clock");
  }
  clock_->advance_by(cost);
}

}  // namespace spfail::net
