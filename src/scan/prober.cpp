#include "scan/prober.hpp"

#include <optional>

#include "obs/lane.hpp"
#include "scan/usernames.hpp"

namespace spfail::scan {

std::string to_string(TestKind kind) {
  return kind == TestKind::NoMsg ? "NoMsg" : "BlankMsg";
}

std::string to_string(ProbeStatus status) {
  switch (status) {
    case ProbeStatus::ConnectionRefused:
      return "connection-refused";
    case ProbeStatus::SmtpFailure:
      return "smtp-failure";
    case ProbeStatus::Greylisted:
      return "greylisted";
    case ProbeStatus::TempFailed:
      return "temp-failed";
    case ProbeStatus::Dropped:
      return "dropped";
    case ProbeStatus::SpfMeasured:
      return "spf-measured";
    case ProbeStatus::SpfNotMeasured:
      return "spf-not-measured";
  }
  return "?";
}

ProbeResult Prober::probe(mta::MailHost& host,
                          const std::string& recipient_domain,
                          const dns::Name& mail_from_domain, TestKind kind,
                          const faults::FaultDecision& fault) {
  ProbeResult result;
  result.kind = kind;
  result.target = host.address();
  result.mail_from_domain = mail_from_domain;
  result.injected = fault.kind;

  // Remember where the query log stood so we only read our own test's
  // entries (the unique label makes collisions impossible anyway; the cursor
  // keeps repeated tests of the same label honest).
  const std::size_t log_cursor = server_.query_log().size();

  // Each dialog stage runs under a ScopedTimer charged to the simulated
  // clock; a stage that returns early (fault, rejection) still closes its
  // scope, so the stage histograms cover failed dialogs too.
  const auto sim_now = [this] { return transport_.now(); };

  auto session = [&]() -> std::optional<smtp::ServerSession> {
    const obs::ScopedTimer timer("probe_stage_sim_seconds", sim_now,
                                 {{"stage", "connect"}});
    return host.connect(config_.scanner_address);
  }();
  if (!session.has_value()) {
    result.status = ProbeStatus::ConnectionRefused;
    return result;
  }

  // The transport owns dialog timing (per-frame cost), fault application
  // (tempfails/drops fire at their stage inside the channel; a latency
  // spike is charged at connection setup) and wire-frame capture.
  net::SmtpChannel channel =
      transport_.open(*session, net::Endpoint::ip(config_.scanner_address),
                      net::Endpoint::ip(host.address()), fault);

  // An exchange the channel's fault preempted ends the dialog: the failure
  // is the network's, not the host's.
  const auto faulted = [&](const smtp::Reply& reply) {
    if (channel.dropped()) {
      result.status = ProbeStatus::Dropped;
      return true;
    }
    if (channel.last_injected()) {
      result.failing_code = reply.code;
      result.status = ProbeStatus::TempFailed;
      return true;
    }
    return false;
  };

  const auto finish_with_log_verdict = [&](bool dialog_ok, int code) {
    // Read the authoritative log for this test's unique domain (in sharded
    // runs this is the worker's lane log; same cursor semantics).
    spfvuln::FingerprintClassifier classifier(mail_from_domain,
                                              config_.responder.macro);
    server_.query_log().for_each_under_from(
        log_cursor, mail_from_domain, [&](const dns::QueryLogEntry& entry) {
          if (entry.qname == mail_from_domain &&
              entry.qtype == dns::RRType::TXT) {
            result.saw_policy_fetch = true;
            return;
          }
          const auto behavior = classifier.classify(entry.qname);
          if (behavior.has_value()) result.behaviors.insert(*behavior);
        });
    if (!result.behaviors.empty()) {
      result.status = ProbeStatus::SpfMeasured;
    } else if (dialog_ok) {
      result.status = ProbeStatus::SpfNotMeasured;
    } else {
      result.failing_code = code;
      result.status = ProbeStatus::SmtpFailure;
    }
  };

  // --- HELO ---
  {
    const obs::ScopedTimer timer("probe_stage_sim_seconds", sim_now,
                                 {{"stage", "helo"}});
    const smtp::Reply banner = channel.greeting();
    if (faulted(banner)) return result;
    if (!banner.positive()) {
      finish_with_log_verdict(false, banner.code);
      return result;
    }
    const smtp::Reply hello = channel.send("EHLO " + config_.helo_identity);
    if (!hello.positive()) {
      finish_with_log_verdict(false, hello.code);
      return result;
    }
  }

  // --- MAIL FROM (this is where the unique domain goes) ---
  {
    const obs::ScopedTimer timer("probe_stage_sim_seconds", sim_now,
                                 {{"stage", "mail"}});
    const std::string mail_from = std::string(kUsernameLadder[0]) + "@" +
                                  mail_from_domain.to_string();
    const smtp::Reply mail = channel.send("MAIL FROM:<" + mail_from + ">");
    if (faulted(mail)) return result;
    if (mail.code == 451) {
      result.status = ProbeStatus::Greylisted;
      return result;
    }
    if (mail.code == 450) {
      // 450 4.4.3-style temporary lookup failure (the host's resolver path
      // hiccuped) — transient, worth a retry.
      result.failing_code = mail.code;
      result.status = ProbeStatus::TempFailed;
      return result;
    }
    if (!mail.positive()) {
      // Rejection after MAIL FROM frequently *is* the SPF check firing
      // (the served policy ends in -all on purpose); the log decides.
      finish_with_log_verdict(false, mail.code);
      return result;
    }
  }

  // --- RCPT TO: walk the username ladder until one is accepted ---
  bool rcpt_accepted = false;
  int last_code = 0;
  {
    const obs::ScopedTimer timer("probe_stage_sim_seconds", sim_now,
                                 {{"stage", "rcpt"}});
    for (const std::string_view username : kUsernameLadder) {
      const smtp::Reply rcpt = channel.send(
          "RCPT TO:<" + std::string(username) + "@" + recipient_domain + ">");
      if (faulted(rcpt)) return result;
      last_code = rcpt.code;
      if (rcpt.positive()) {
        rcpt_accepted = true;
        result.accepted_username = std::string(username);
        break;
      }
      if (rcpt.code == 451) {
        result.status = ProbeStatus::Greylisted;
        return result;
      }
      if (rcpt.code == 450) {
        result.failing_code = rcpt.code;
        result.status = ProbeStatus::TempFailed;
        return result;
      }
      if (rcpt.code == 421 || channel.closed()) {
        finish_with_log_verdict(false, rcpt.code);
        return result;
      }
    }
    if (!rcpt_accepted) {
      finish_with_log_verdict(false, last_code);
      return result;
    }
  }

  // --- DATA ---
  const obs::ScopedTimer timer("probe_stage_sim_seconds", sim_now,
                               {{"stage", "data"}});
  const smtp::Reply data = channel.send("DATA");
  if (faulted(data)) return result;
  if (!data.intermediate()) {
    finish_with_log_verdict(false, data.code);
    return result;
  }

  if (kind == TestKind::NoMsg) {
    // Terminate before transmitting any message content: drop the
    // connection. Nothing can possibly be delivered.
    finish_with_log_verdict(true, 0);
    return result;
  }

  // BlankMsg: transmit the end-of-data marker immediately — an entirely
  // empty message (no headers, no subject, no body). A rejection of the
  // blank message is still an SMTP failure for funnel accounting (though
  // any SPF queries already issued decide the verdict first).
  const smtp::Reply accepted = channel.send(".");
  channel.send("QUIT");
  finish_with_log_verdict(accepted.positive(), accepted.code);
  return result;
}

}  // namespace spfail::scan
