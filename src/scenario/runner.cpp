#include "scenario/runner.hpp"

#include <memory>
#include <stdexcept>

#include "dkim/dkim.hpp"
#include "mail/message.hpp"
#include "smtp/reply.hpp"
#include "util/rng.hpp"

namespace spfail::scenario {

std::string to_string(FlowClass flow) {
  switch (flow) {
    case FlowClass::Legit:
      return "legit";
    case FlowClass::Forwarded:
      return "forwarded";
    case FlowClass::Spoof:
      return "spoof";
  }
  return "?";
}

FlowClass parse_flow_class(std::string_view text) {
  if (text == "legit") return FlowClass::Legit;
  if (text == "forwarded") return FlowClass::Forwarded;
  if (text == "spoof") return FlowClass::Spoof;
  throw std::invalid_argument("unknown FlowClass '" + std::string(text) + "'");
}

namespace {

double rate(std::uint64_t numerator, std::uint64_t denominator) noexcept {
  return denominator == 0
             ? 0.0
             : static_cast<double>(numerator) / static_cast<double>(denominator);
}

}  // namespace

double ScenarioReport::spoof_delivered_rate() const noexcept {
  return rate(spoof.delivered, spoof.flows);
}

double ScenarioReport::spoof_rejected_rate() const noexcept {
  return rate(spoof.rejected, spoof.flows);
}

double ScenarioReport::legit_rejected_rate() const noexcept {
  return rate(legit.rejected + forwarded.rejected,
              legit.flows + forwarded.flows);
}

double ScenarioReport::permerror_rate() const noexcept {
  return rate(legit.spf_permerror + forwarded.spf_permerror +
                  spoof.spf_permerror,
              legit.flows + forwarded.flows + spoof.flows);
}

bool ScenarioReport::satisfies(const Oracle& oracle) const noexcept {
  return oracle.spoof_delivered.contains(spoof_delivered_rate()) &&
         oracle.spoof_rejected.contains(spoof_rejected_rate()) &&
         oracle.legit_rejected.contains(legit_rejected_rate()) &&
         oracle.permerror.contains(permerror_rate());
}

namespace {

using population::SenderDkim;
using population::SenderPolicy;
using population::SenderRouting;
using population::SenderSpf;

bool focus_selects(Focus focus, const SenderPolicy& policy) {
  if (!policy.staged()) return false;
  switch (focus) {
    case Focus::Baseline:
      return false;
    case Focus::Forwarding:
      return policy.routing == SenderRouting::ForwardPlain ||
             policy.routing == SenderRouting::ForwardSrs;
    case Focus::Alignment:
      return policy.routing == SenderRouting::EspEnvelope ||
             policy.dkim != SenderDkim::None;
    case Focus::Misconfig:
      return policy.spf != SenderSpf::Normal;
  }
  return false;
}

// One flow's ingredients: who dials in, what the envelope says, what the
// message body carries.
struct Flow {
  FlowClass flow_class = FlowClass::Legit;
  util::IpAddress client;
  std::string helo;
  std::string mail_from;  // full addr-spec
  std::string data;       // rendered message
};

std::string render_message(std::string_view from_domain, const char* subject,
                           const SenderPolicy* signer_policy) {
  mail::Message message;
  message.add_header("From", "news@" + std::string(from_domain));
  message.add_header("To", "postmaster@mx.invalid");
  message.add_header("Subject", subject);
  message.add_header("Date", "Mon, 11 Oct 2021 09:00:00 +0000");
  message.set_body("scenario flow\r\n");
  if (signer_policy != nullptr && signer_policy->dkim != SenderDkim::None) {
    const bool aligned = signer_policy->dkim == SenderDkim::Aligned;
    const std::string domain =
        aligned ? std::string(from_domain)
                : std::string(population::kEspSignerDomain);
    const dkim::Signer signer(dns::Name::lenient(domain),
                              std::string(population::kDkimSelector),
                              population::dkim_secret_for(domain));
    signer.sign(message);
  }
  return message.to_string();
}

Flow legit_flow(const population::DomainRecord& domain,
                const SenderPolicy& policy) {
  Flow flow;
  flow.data = render_message(domain.name, "scenario legit flow", &policy);
  switch (policy.routing) {
    case SenderRouting::Direct:
      flow.flow_class = FlowClass::Legit;
      flow.client = domain.addresses.front();
      flow.helo = std::string(domain.name);
      flow.mail_from = "news@" + std::string(domain.name);
      break;
    case SenderRouting::ForwardPlain:
      // The forwarder re-sends with the original MAIL FROM intact — the
      // receiver's SPF sees the victim's policy against the forwarder's IP.
      flow.flow_class = FlowClass::Forwarded;
      flow.client = population::forwarder_address();
      flow.helo = std::string(population::kForwarderDomain);
      flow.mail_from = "news@" + std::string(domain.name);
      break;
    case SenderRouting::ForwardSrs:
      // SRS rewrites the envelope onto the forwarder's own domain: SPF
      // passes again, but no longer aligns with the From domain.
      flow.flow_class = FlowClass::Forwarded;
      flow.client = population::forwarder_address();
      flow.helo = std::string(population::kForwarderDomain);
      flow.mail_from = "srs0=" + std::string(domain.name) + "@" +
                       std::string(population::kForwarderDomain);
      break;
    case SenderRouting::EspEnvelope:
      // The ESP sends under its own bounce domain (SPF-misaligned by
      // construction, the Weak Links shape).
      flow.flow_class = FlowClass::Legit;
      flow.client = population::esp_address();
      flow.helo = std::string(population::kEspSignerDomain);
      flow.mail_from = "bounce@" + std::string(population::kEspBounceDomain);
      break;
  }
  return flow;
}

Flow spoof_flow(const population::DomainRecord& domain) {
  Flow flow;
  flow.flow_class = FlowClass::Spoof;
  flow.client = population::attacker_address();
  flow.helo = "mailer.attacker.example";
  flow.mail_from = "news@" + std::string(domain.name);
  // The adversary forges the From identity but cannot sign for the domain.
  flow.data = render_message(domain.name, "scenario spoof flow", nullptr);
  return flow;
}

// Feed one full SMTP dialog; true when the final "." was accepted.
bool deliver(mta::MailHost& host, const Flow& flow) {
  auto session = host.connect(flow.client);
  if (!session.has_value()) return false;
  if (!session->respond("HELO " + flow.helo).positive()) return false;
  if (!session->respond("MAIL FROM:<" + flow.mail_from + ">").positive()) {
    return false;
  }
  if (!session->respond("RCPT TO:<postmaster@mx.invalid>").positive()) {
    return false;
  }
  if (!session->respond("DATA").intermediate()) return false;

  std::string_view rest = flow.data;
  while (!rest.empty()) {
    std::string line;
    const std::size_t eol = rest.find("\r\n");
    if (eol == std::string_view::npos) {
      line = std::string(rest);
      rest = {};
    } else {
      line = std::string(rest.substr(0, eol));
      rest = rest.substr(eol + 2);
    }
    session->respond(line);
  }
  const smtp::Reply accepted = session->respond(".");
  session->respond("QUIT");
  return accepted.positive();
}

void tally(FlowTally& tally, mta::MailHost& host, bool delivered) {
  ++tally.flows;
  if (delivered) {
    ++tally.delivered;
  } else {
    ++tally.rejected;
  }
  const auto& spf_results = host.last_spf_results();
  if (!spf_results.empty() && spf_results.front() == spf::Result::PermError) {
    ++tally.spf_permerror;
  }
  const auto& dmarc = host.last_dmarc();
  if (dmarc.has_value()) {
    if (delivered &&
        dmarc->disposition == dmarc::Disposition::Quarantine) {
      ++tally.quarantined;
    }
    if (dmarc->sampled_out) ++tally.dmarc_sampled_out;
  }
}

}  // namespace

ScenarioReport run_scenario(population::Fleet& fleet, const ScenarioSpec& spec,
                            const RunnerOptions& options) {
  ScenarioReport report;
  report.name = spec.name;
  report.version = spec.version;

  const auto& receivers = fleet.scenario_receivers();
  if (receivers.empty() || spec.focus == Focus::Baseline) return report;

  // Deterministic receiver choice: an FNV hash of (seed, domain, flow
  // class) over the sorted receiver list, probing past blacklisted
  // receivers (they'd 554 every dialog and measure nothing). Only a study
  // blacklists hosts, so the fresh fleet run_scenarios builds has none; the
  // probe guards a caller that passes a fleet a study has run on.
  const auto pick_receiver = [&](std::string_view domain,
                                 FlowClass flow_class) -> mta::MailHost* {
    std::size_t index = static_cast<std::size_t>(
        (options.seed ^ util::fnv1a(domain) ^
         (0x9e3779b97f4a7c15ULL * util::fnv1a(to_string(flow_class)))) %
        receivers.size());
    for (std::size_t probes = 0; probes < receivers.size(); ++probes) {
      mta::MailHost* host = fleet.find_host(receivers[index]);
      if (host != nullptr && !host->blacklisted()) return host;
      if (host != nullptr) fleet.release_host(receivers[index]);
      index = (index + 1) % receivers.size();
    }
    return nullptr;
  };

  // The staged focus domains, in domain order, truncated at max_domains.
  const auto& domains = fleet.domains();
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const SenderPolicy& policy = fleet.sender_policy(i);
    if (!focus_selects(spec.focus, policy)) continue;
    if (report.domains_staged >= options.max_domains) {
      report.truncated = true;
      break;
    }
    ++report.domains_staged;
    const population::DomainRecord& domain = domains[i];
    const Flow flows[] = {legit_flow(domain, policy), spoof_flow(domain)};
    for (const Flow& flow : flows) {
      mta::MailHost* host = pick_receiver(domain.name, flow.flow_class);
      if (host == nullptr) continue;  // every receiver blacklisted
      const bool delivered = deliver(*host, flow);
      FlowTally& bucket = flow.flow_class == FlowClass::Spoof
                              ? report.spoof
                              : (flow.flow_class == FlowClass::Forwarded
                                     ? report.forwarded
                                     : report.legit);
      tally(bucket, *host, delivered);
      fleet.release_host(host->address());
    }
  }
  return report;
}

std::vector<ScenarioReport> run_scenarios(
    const std::vector<ScenarioSpec>& specs, double scale, std::uint64_t seed) {
  const population::PolicyMix mix = resolve_mix(specs);
  std::unique_ptr<population::Fleet> staged;
  if (mix.stages_senders()) {
    population::FleetConfig config;
    config.scale = scale;
    config.seed = seed;
    config.mix = mix;
    staged = std::make_unique<population::Fleet>(config);
  }
  RunnerOptions options;
  options.seed = seed;
  std::vector<ScenarioReport> reports;
  for (const ScenarioSpec& spec : specs) {
    if (staged) {
      reports.push_back(run_scenario(*staged, spec, options));
    } else {
      ScenarioReport report;
      report.name = spec.name;
      report.version = spec.version;
      reports.push_back(std::move(report));
    }
  }
  return reports;
}

}  // namespace spfail::scenario
