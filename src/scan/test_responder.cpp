#include "scan/test_responder.hpp"

namespace spfail::scan {

std::string test_policy_text(const TestResponderConfig& config,
                             const dns::Name& mail_from_domain) {
  const std::string_view domain = mail_from_domain.text();
  std::string policy = "v=spf1 a:";
  policy.reserve(32 + config.macro.size() + 2 * domain.size());
  policy.append(config.macro).append(".").append(domain);
  policy.append(" a:b.").append(domain).append(" -all");
  return policy;
}

TestResponderConfig install_test_responder(dns::AuthoritativeServer& server,
                                           TestResponderConfig config) {
  const TestResponderConfig installed = config;
  server.add_responder(
      installed.base,
      [installed](const dns::Name& qname, dns::RRType qtype)
          -> std::optional<std::vector<dns::ResourceRecord>> {
        const dns::LabelRange relative =
            qname.labels_relative_to(installed.base);
        switch (qtype) {
          case dns::RRType::TXT: {
            // Serve the templated policy for <id>.<suite> fetches; serve the
            // probe-mail rejection DMARC policy (§6.2) for _dmarc fetches;
            // TXT for probe names (deeper labels) answers NODATA.
            if (relative.size() == 2) {
              return std::vector{dns::ResourceRecord::txt(
                  qname, test_policy_text(installed, qname))};
            }
            if (!relative.empty() && relative.front() == "_dmarc") {
              return std::vector{
                  dns::ResourceRecord::txt(qname, "v=DMARC1; p=reject")};
            }
            return std::vector<dns::ResourceRecord>{};
          }
          case dns::RRType::A:
            if (relative.empty()) return std::vector<dns::ResourceRecord>{};
            return std::vector{
                dns::ResourceRecord::a(qname, installed.answer_v4)};
          case dns::RRType::AAAA:
            // NODATA: the scan runs over v4, and v6 probes add no signal.
            return std::vector<dns::ResourceRecord>{};
          case dns::RRType::MX:
            return std::vector<dns::ResourceRecord>{};
          default:
            return std::vector<dns::ResourceRecord>{};
        }
      });
  return installed;
}

}  // namespace spfail::scan
