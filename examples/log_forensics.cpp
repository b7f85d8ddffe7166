// Offline analysis of an authoritative DNS query log — the second half of
// the paper's pipeline. The scanner only *elicits* queries; the verdicts are
// computed afterwards from the server logs. This example replays that:
// it probes a mixed fleet of MTAs (writing nothing down but the DNS log),
// then reconstructs every per-target verdict purely from the log.
//
//   $ ./log_forensics
#include <iostream>
#include <map>

#include "mta/host.hpp"
#include "scan/prober.hpp"
#include "scan/test_responder.hpp"
#include "spfvuln/fingerprint.hpp"

using namespace spfail;

int main() {
  dns::AuthoritativeServer server;
  util::SimClock clock;
  const auto responder = scan::install_test_responder(server);

  // --- Phase 1: the scan (we keep no results, only the DNS log) --------
  scan::ProberConfig prober_config;
  prober_config.responder = responder;
  net::Transport transport(clock);
  scan::Prober prober(prober_config, server, transport);
  scan::LabelAllocator labels(util::Rng(11), responder.base);
  const std::string suite = labels.new_suite();

  const spfvuln::SpfBehavior zoo[] = {
      spfvuln::SpfBehavior::RfcCompliant,
      spfvuln::SpfBehavior::VulnerableLibspf2,
      spfvuln::SpfBehavior::NoTruncation,
      spfvuln::SpfBehavior::VulnerableLibspf2,
      spfvuln::SpfBehavior::NoExpansion,
      spfvuln::SpfBehavior::RfcCompliant,
  };
  std::map<std::string, std::string> ground_truth;  // id -> behaviour name
  std::uint8_t octet = 30;
  for (const auto behavior : zoo) {
    mta::HostProfile profile;
    profile.address = util::IpAddress::v4(203, 0, 113, octet++);
    profile.behaviors = {behavior};
    mta::MailHost host(profile, server, clock);
    const std::string id = labels.new_id();
    ground_truth[id] = to_string(behavior);
    prober.probe(host, "target.example",
                 labels.mail_from_domain(id, suite), scan::TestKind::NoMsg);
  }
  std::cout << "Scan phase complete: " << server.query_log().size()
            << " queries captured at the authoritative server.\n\n";

  // --- Phase 2: forensics, from the log alone --------------------------
  // Group queries by the <id> label (position: directly under <suite>.base).
  const dns::Name suite_base = responder.base.child(suite);
  std::map<std::string, std::vector<dns::Name>> by_id;
  for (const auto& entry : server.query_log().entries()) {
    if (!entry.qname.is_subdomain_of(suite_base)) continue;
    const dns::LabelRange relative =
        entry.qname.labels_relative_to(suite_base);
    if (relative.empty()) continue;
    by_id[std::string(relative.back())].push_back(entry.qname);
  }

  std::cout << "Reconstructed verdicts (log-only) vs ground truth:\n";
  std::size_t correct = 0;
  for (const auto& [id, queries] : by_id) {
    spfvuln::FingerprintClassifier classifier(suite_base.child(id),
                                              responder.macro);
    std::set<spfvuln::SpfBehavior> behaviors;
    for (const auto& qname : queries) {
      const auto behavior = classifier.classify(qname);
      if (behavior.has_value()) behaviors.insert(*behavior);
    }
    std::string verdict = behaviors.empty()
                              ? std::string("inconclusive")
                              : to_string(*behaviors.begin());
    const std::string& truth = ground_truth.at(id);
    const bool match = verdict == truth;
    correct += match;
    std::cout << "  id=" << id << "  verdict=" << verdict
              << "  truth=" << truth << (match ? "  OK" : "  MISMATCH")
              << "\n";
  }
  std::cout << "\n" << correct << "/" << ground_truth.size()
            << " verdicts recovered from the log alone.\n";
  return correct == ground_truth.size() ? 0 : 1;
}
