// Field codecs for the snapshot format (DESIGN.md §11).
//
// These encode the scan-domain value types (addresses, probe results,
// per-address outcomes, degradation counters, whole campaign reports, wire
// frames, host residue) against snapshot::Writer/Reader. They live apart
// from snapshot.cpp because the study's checkpoint capture
// (capture_host_state) uses them too.
#pragma once

#include "faults/degradation.hpp"
#include "net/frame.hpp"
#include "scan/campaign.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/snapshot.hpp"
#include "util/ip.hpp"

namespace spfail::mta {
class MailHost;
}

namespace spfail::snapshot {

void put_address(Writer& w, const util::IpAddress& address);
util::IpAddress get_address(Reader& r);

void put_probe_result(Writer& w, const scan::ProbeResult& result);
scan::ProbeResult get_probe_result(Reader& r);

void put_outcome(Writer& w, const scan::AddressOutcome& outcome);
scan::AddressOutcome get_outcome(Reader& r);

void put_degradation(Writer& w, const faults::DegradationReport& deg);
faults::DegradationReport get_degradation(Reader& r);

void put_report(Writer& w, const scan::CampaignReport& report);
scan::CampaignReport get_report(Reader& r);

void put_frame(Writer& w, const net::Frame& frame);
net::Frame get_frame(Reader& r);

// Scanner-visible host residue (greylist first-contact map + flaky-RNG
// cursor). Field order is frozen: it is the exact layout StudySnapshot
// always used for its hosts section.
void put_host_state(Writer& w, const StudySnapshot::HostState& host);
StudySnapshot::HostState get_host_state(Reader& r);

// Capture a host's residue in canonical wire form (greylist entries re-keyed
// to textual addresses and re-sorted lexically — see the note in
// Study::capture).
StudySnapshot::HostState capture_host_state(const util::IpAddress& address,
                                            const mta::MailHost& host);

}  // namespace spfail::snapshot
