#include "mta/host.hpp"

#include <algorithm>

#include "dkim/dkim.hpp"
#include "dmarc/discovery.hpp"
#include "mail/message.hpp"

namespace spfail::mta {

MailHost::MailHost(HostProfile profile, dns::DnsService& dns_service,
                   const util::SimClock& clock,
                   spf::SharedRecordCache* record_cache)
    : profile_(std::move(profile)),
      clock_(clock),
      record_cache_(record_cache),
      resolver_(dns_service, clock, profile_.address),
      behaviors_(profile_.behaviors),
      flaky_rng_(profile_.address.is_v4() ? profile_.address.v4_value()
                                          : 0x6D7461ULL),
      dmarc_seed_(util::fnv1a(profile_.address.to_string())) {
  for (const auto behavior : behaviors_) {
    engines_.push_back(spfvuln::make_expander(behavior));
    evaluators_.push_back(std::make_unique<spf::Evaluator>(
        resolver_, *engines_.back(), spf::EvaluatorLimits{}, record_cache_));
  }
}

void MailHost::apply_patch() {
  patched_ = true;
  for (std::size_t i = 0; i < behaviors_.size(); ++i) {
    if (behaviors_[i] == spfvuln::SpfBehavior::VulnerableLibspf2) {
      behaviors_[i] = spfvuln::SpfBehavior::PatchedLibspf2;
      engines_[i] = spfvuln::make_expander(behaviors_[i]);
      evaluators_[i] = std::make_unique<spf::Evaluator>(
          resolver_, *engines_[i], spf::EvaluatorLimits{}, record_cache_);
    }
  }
}

bool MailHost::runs_vulnerable_engine() const noexcept {
  for (const auto behavior : behaviors_) {
    if (spfvuln::is_vulnerable(behavior)) return true;
  }
  return false;
}

std::optional<smtp::ServerSession> MailHost::connect(
    const util::IpAddress& client) {
  // Evaluations are per dialog: a new connection never reports the last
  // one's SPF results or DMARC verdict.
  last_spf_results_.clear();
  last_dmarc_.reset();
  if (!profile_.accepts_connections) return std::nullopt;
  return smtp::ServerSession(*this, client);
}

smtp::Reply MailHost::on_hello(const std::string& client_identity,
                               const util::IpAddress& client) {
  (void)client_identity;
  (void)client;
  if (profile_.smtp_broken) return smtp::replies::service_unavailable();
  if (blacklisted_) return smtp::replies::blacklisted();
  return smtp::replies::ok();
}

spf::Result MailHost::run_spf(const std::string& sender_local,
                              const std::string& sender_domain,
                              const util::IpAddress& client) {
  last_spf_results_.clear();
  if (profile_.flaky_spf_rate > 0.0 &&
      flaky_rng_.bernoulli(profile_.flaky_spf_rate)) {
    // The evaluation stalls right after the policy fetch: the TXT query is
    // visible at the authoritative server, nothing conclusive follows.
    resolver_.query(dns::Name::lenient(sender_domain), dns::RRType::TXT);
    last_spf_results_.push_back(spf::Result::TempError);
    return spf::Result::TempError;
  }
  spf::Result primary = spf::Result::None;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    spf::Evaluator& evaluator = *evaluators_[i];
    spf::CheckRequest request;
    request.client_ip = client;
    request.sender_local = sender_local;
    request.sender_domain = dns::Name::lenient(sender_domain);
    request.helo_domain = dns::Name::lenient("scanner.invalid");
    request.timestamp = clock_.now();
    const spf::CheckOutcome outcome = evaluator.check_host(request);
    last_spf_results_.push_back(outcome.result);
    if (i == 0) primary = outcome.result;
  }
  return primary;
}

smtp::Reply MailHost::on_mail_from(const std::string& sender_local,
                                   const std::string& sender_domain,
                                   const util::IpAddress& client) {
  mail_from_spf_result_ = spf::Result::None;
  if (blacklisted_) return smtp::replies::blacklisted();

  if (profile_.greylists) {
    const auto it = greylist_seen_.find(client);
    if (it == greylist_seen_.end()) {
      greylist_seen_.emplace(client, clock_.now());
      return smtp::replies::greylisted();
    }
    if (clock_.now() - it->second < profile_.greylist_delay) {
      return smtp::replies::greylisted();
    }
  }

  if (profile_.dns_tempfail_rate > 0.0 &&
      flaky_rng_.bernoulli(profile_.dns_tempfail_rate)) {
    return smtp::replies::dns_tempfail();
  }

  if (profile_.validates_spf && profile_.spf_timing == SpfTiming::AtMailFrom &&
      !sender_domain.empty()) {
    const spf::Result result = run_spf(sender_local, sender_domain, client);
    mail_from_spf_result_ = result;
    if (result == spf::Result::Fail && profile_.rejects_spf_fail) {
      return smtp::replies::rejected_by_policy();
    }
  }
  return smtp::replies::ok();
}

smtp::Reply MailHost::on_rcpt_to(const std::string& recipient,
                                 const util::IpAddress& client) {
  (void)client;
  if (!profile_.known_recipients.empty()) {
    const auto parts = smtp::split_mailbox(recipient);
    const std::string local = parts.has_value() ? parts->local : recipient;
    if (std::find(profile_.known_recipients.begin(),
                  profile_.known_recipients.end(),
                  local) == profile_.known_recipients.end()) {
      return smtp::replies::mailbox_unavailable();
    }
  }
  return smtp::replies::ok();
}

smtp::Reply MailHost::on_message(const smtp::Envelope& envelope,
                                 const util::IpAddress& client) {
  last_dmarc_.reset();
  if (profile_.rejects_messages) {
    return smtp::Reply{554, "Transaction failed: message content rejected"};
  }
  spf::Result spf_result =
      profile_.spf_timing == SpfTiming::AtMailFrom ? mail_from_spf_result_
                                                   : spf::Result::None;
  if (profile_.validates_spf && profile_.spf_timing == SpfTiming::AfterData &&
      !envelope.sender_domain.empty()) {
    spf_result = run_spf(envelope.sender_local, envelope.sender_domain, client);
    if (spf_result == spf::Result::Fail && profile_.rejects_spf_fail) {
      return smtp::replies::rejected_by_policy();
    }
  }
  if (profile_.checks_dmarc && !envelope.sender_domain.empty()) {
    dmarc::EvaluationInput input;
    input.spf_result = spf_result;
    input.spf_domain = dns::Name::lenient(envelope.sender_domain);
    // The envelope sender domain stands in for RFC5322.From on dataless
    // transactions (the scanner's probes); real messages carry a From
    // header — and possibly a DKIM signature — that override it.
    input.from_domain = input.spf_domain;
    if (!envelope.data.empty()) {
      try {
        const mail::Message message = mail::Message::parse(envelope.data);
        if (const auto from = message.from_domain(); from.has_value()) {
          input.from_domain = *from;
        }
        if (message.count_header("dkim-signature") > 0) {
          const dkim::Verification verification =
              dkim::verify(message, resolver_);
          input.dkim_result = verification.result;
          input.dkim_domain = verification.domain;
        }
      } catch (const std::exception&) {
        // Unparseable data: fall back to envelope identifiers, as edge
        // filters do.
      }
    }
    const dmarc::Evaluator evaluator(resolver_, dmarc_seed_);
    last_dmarc_ = evaluator.evaluate(input);
    if (last_dmarc_->disposition == dmarc::Disposition::Reject) {
      return smtp::Reply{550, "Rejected by DMARC policy"};
    }
  }
  return smtp::replies::ok();
}

}  // namespace spfail::mta
