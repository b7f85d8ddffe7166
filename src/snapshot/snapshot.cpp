#include "snapshot/snapshot.hpp"

#include <cstdio>
#include <fstream>
#include <string_view>

#include "snapshot/enums.hpp"
#include "snapshot/fields.hpp"

namespace spfail::snapshot {

namespace {

// Guards the optional trailing metrics section: any other first byte after
// the trace frames means a corrupt or foreign tail, not a missing feature.
constexpr std::uint8_t kMetricsMarker = 0x4D;  // 'M'
// Guards the optional fleet intern-table section. Ordering is fixed:
// metrics (if any) first, then strings — each optional section appends
// after every older one so absent-section snapshots keep their bytes.
constexpr std::uint8_t kStringsMarker = 0x49;  // 'I'

SnapshotKind decode_kind(std::uint8_t v) {
  switch (v) {
    case 1:
      return SnapshotKind::Campaign;
    case 2:
      return SnapshotKind::Study;
  }
  throw SnapshotError("unmapped SnapshotKind byte " + std::to_string(v));
}

}  // namespace

std::string to_string(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::Campaign:
      return "campaign";
    case SnapshotKind::Study:
      return "study";
  }
  return "unknown";
}

std::string_view FrozenReport::encoded() const {
  std::call_once(encode_once_, [this] {
    Writer w;
    put_report(w, report_);
    encoded_ = w.take();
  });
  return encoded_;
}

SharedReport freeze(scan::CampaignReport report) {
  return std::make_shared<const FrozenReport>(std::move(report));
}

std::string StudySnapshot::encode() const {
  // Every payload field after the initial report, staged so the container
  // can be sized once: it is small next to the report's cached section.
  Writer tail;
  put_degradation(tail, degradation);
  tail.u64(remeasurable_resolved_vulnerable);
  tail.u64(remeasurable_resolved_compliant);
  tail.u64(remeasurable.size());
  for (const auto& [address, slot] : remeasurable) {
    put_address(tail, address);
    tail.u64(slot);
  }
  tail.u64(blacklisted.size());
  for (const auto& address : blacklisted) put_address(tail, address);
  tail.u64(patched.size());
  for (const auto& address : patched) put_address(tail, address);
  tail.u64(series.size());
  for (const auto& observations : series) {
    tail.u64(observations.size());
    for (const auto obs : observations) tail.u8(encode_enum(obs));
  }
  tail.u64(hosts.size());
  for (const auto& host : hosts) put_host_state(tail, host);
  tail.u64(trace.size());
  for (const auto& frame : trace) put_frame(tail, frame);
  if (has_metrics) {
    tail.u8(kMetricsMarker);
    metrics.encode(tail);
    tail.u64(metric_lines.size());
    for (const auto& line : metric_lines) tail.str(line);
  }
  if (has_strings) {
    tail.u8(kStringsMarker);
    strings.encode(tail);
  }

  static const FrozenReport kNoReport{scan::CampaignReport{}};
  const std::string_view report = (initial ? *initial : kNoReport).encoded();

  Writer out;
  for (const char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kSnapshotVersion);
  out.u8(static_cast<std::uint8_t>(meta.kind));
  out.u64(meta.fleet_seed);
  out.f64(meta.scale);
  out.u64(meta.study_seed);
  out.u64(meta.fault_seed);
  out.f64(meta.fault_rate);
  out.boolean(meta.tracing);
  const std::size_t length_at = out.open_length();
  out.u64(rounds_done);
  out.i64(clock_now);
  for (const std::uint64_t word : loss_rng) out.u64(word);
  out.u64(suites_issued);
  out.reserve(out.bytes().size() + report.size() + tail.bytes().size() + 8);
  out.raw(report);
  out.raw(tail.bytes());
  out.close_length(length_at);
  const std::string_view payload =
      std::string_view(out.bytes()).substr(length_at + 4);
  out.u64(payload_checksum(payload));
  return out.take();
}

StudySnapshot StudySnapshot::decode(std::string_view bytes) {
  Reader r(bytes);
  for (const char expected : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(expected)) {
      throw SnapshotError("bad magic (not a spfail snapshot)");
    }
  }
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kSnapshotVersion) + ")");
  }

  StudySnapshot snap;
  snap.meta.kind = decode_kind(r.u8());
  snap.meta.fleet_seed = r.u64();
  snap.meta.scale = r.f64();
  snap.meta.study_seed = r.u64();
  snap.meta.fault_seed = r.u64();
  snap.meta.fault_rate = r.f64();
  snap.meta.tracing = r.boolean();

  const std::string payload_bytes = r.str();
  const std::uint64_t checksum = r.u64();
  r.expect_done();
  if (checksum != payload_checksum(payload_bytes)) {
    throw SnapshotError("payload checksum mismatch (corrupt snapshot)");
  }

  Reader payload(payload_bytes);
  snap.rounds_done = payload.u64();
  snap.clock_now = payload.i64();
  for (auto& word : snap.loss_rng) word = payload.u64();
  snap.suites_issued = payload.u64();
  snap.initial = freeze(get_report(payload));
  snap.degradation = get_degradation(payload);
  snap.remeasurable_resolved_vulnerable = payload.u64();
  snap.remeasurable_resolved_compliant = payload.u64();
  const std::uint64_t remeasurable = payload.u64();
  for (std::uint64_t i = 0; i < remeasurable; ++i) {
    util::IpAddress address = get_address(payload);
    const std::uint64_t slot = payload.u64();
    snap.remeasurable.emplace_back(address, slot);
  }
  const std::uint64_t blacklisted = payload.u64();
  for (std::uint64_t i = 0; i < blacklisted; ++i) {
    snap.blacklisted.push_back(get_address(payload));
  }
  const std::uint64_t patched = payload.u64();
  for (std::uint64_t i = 0; i < patched; ++i) {
    snap.patched.push_back(get_address(payload));
  }
  const std::uint64_t series = payload.u64();
  for (std::uint64_t i = 0; i < series; ++i) {
    std::vector<longitudinal::Observation> observations;
    const std::uint64_t n = payload.u64();
    for (std::uint64_t j = 0; j < n; ++j) {
      observations.push_back(decode_observation(payload.u8()));
    }
    snap.series.push_back(std::move(observations));
  }
  const std::uint64_t hosts = payload.u64();
  for (std::uint64_t i = 0; i < hosts; ++i) {
    snap.hosts.push_back(get_host_state(payload));
  }
  const std::uint64_t frames = payload.u64();
  for (std::uint64_t i = 0; i < frames; ++i) {
    snap.trace.push_back(get_frame(payload));
  }
  // Optional trailing sections, in fixed order: metrics, then strings. Each
  // may be absent; anything else after the trace is a corrupt tail.
  if (!payload.done()) {
    std::uint8_t marker = payload.u8();
    if (marker == kMetricsMarker) {
      snap.has_metrics = true;
      snap.metrics = obs::Registry::decode(payload);
      const std::uint64_t lines = payload.u64();
      for (std::uint64_t i = 0; i < lines; ++i) {
        snap.metric_lines.push_back(payload.str());
      }
      if (payload.done()) return snap;
      marker = payload.u8();
    }
    if (marker != kStringsMarker) {
      throw SnapshotError("trailing bytes are not an optional section");
    }
    snap.has_strings = true;
    snap.strings = util::Interner::decode(payload);
  }
  payload.expect_done();
  return snap;
}

void save_atomically(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SnapshotError("cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      throw SnapshotError("short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot rename '" + tmp + "' over '" + path + "'");
  }
}

bool discard_partial(const std::string& path) {
  const std::string tmp = path + ".tmp";
  return std::remove(tmp.c_str()) == 0;
}

std::string load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError("cannot open '" + path + "' for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw SnapshotError("read error on '" + path + "'");
  }
  return bytes;
}

}  // namespace spfail::snapshot
