#include "snapshot/snapshot.hpp"

#include <cstdio>
#include <fstream>
#include <string_view>

#include "snapshot/container.hpp"
#include "snapshot/enums.hpp"
#include "snapshot/fields.hpp"

namespace spfail::snapshot {

namespace {

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

void check_meta(const SnapshotMeta& got, const SnapshotMeta& want) {
  const auto mismatch = [](const std::string& what, const std::string& got,
                           const std::string& want) {
    throw SnapshotError("meta mismatch: snapshot " + what + " is " + got +
                        ", this run expects " + want);
  };
  const auto on_off = [](bool v) { return std::string(v ? "on" : "off"); };
  if (got.kind != want.kind) {
    mismatch("kind", to_string(got.kind), to_string(want.kind));
  }
  if (got.fleet_seed != want.fleet_seed) {
    mismatch("fleet seed", std::to_string(got.fleet_seed),
             std::to_string(want.fleet_seed));
  }
  if (got.scale != want.scale) {
    mismatch("scale", std::to_string(got.scale), std::to_string(want.scale));
  }
  if (got.study_seed != want.study_seed) {
    mismatch("study seed", std::to_string(got.study_seed),
             std::to_string(want.study_seed));
  }
  if (got.fault_seed != want.fault_seed) {
    mismatch("fault seed", std::to_string(got.fault_seed),
             std::to_string(want.fault_seed));
  }
  if (got.fault_rate != want.fault_rate) {
    mismatch("fault rate", std::to_string(got.fault_rate),
             std::to_string(want.fault_rate));
  }
  if (got.tracing != want.tracing) {
    mismatch("tracing", on_off(got.tracing), on_off(want.tracing));
  }
  if (got.strings_digest != want.strings_digest) {
    mismatch("fleet strings digest", std::to_string(got.strings_digest),
             std::to_string(want.strings_digest) +
                 " (this process generated a different population)");
  }
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
  tail.boolean(has_metrics);
  if (has_metrics) {
    metrics.encode(tail);
    tail.u64(metric_lines.size());
    for (const auto& line : metric_lines) tail.str(line);
  }

  static const FrozenReport kNoReport{scan::CampaignReport{}};
  const std::string_view report = (initial ? *initial : kNoReport).encoded();

  Writer out;
  const std::size_t slot = begin_file(out, kSnapshotFile);
  out.u8(static_cast<std::uint8_t>(meta.kind));
  out.u64(meta.fleet_seed);
  out.f64(meta.scale);
  out.u64(meta.study_seed);
  out.u64(meta.fault_seed);
  out.f64(meta.fault_rate);
  out.boolean(meta.tracing);
  out.u64(meta.strings_digest);
  out.u64(rounds_done);
  out.i64(clock_now);
  for (const std::uint64_t word : loss_rng) out.u64(word);
  out.u64(suites_issued);
  out.reserve(out.bytes().size() + report.size() + tail.bytes().size() + 8);
  out.raw(report);
  out.raw(tail.bytes());
  end_file(out, slot);
  return out.take();
}

StudySnapshot StudySnapshot::decode(std::string_view bytes) {
  Reader payload(open_file(bytes, kSnapshotFile));
  StudySnapshot snap;
  snap.meta.kind = decode_kind(payload.u8());
  snap.meta.fleet_seed = payload.u64();
  snap.meta.scale = payload.f64();
  snap.meta.study_seed = payload.u64();
  snap.meta.fault_seed = payload.u64();
  snap.meta.fault_rate = payload.f64();
  snap.meta.tracing = payload.boolean();
  snap.meta.strings_digest = payload.u64();
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
  snap.has_metrics = payload.boolean();
  if (snap.has_metrics) {
    snap.metrics = obs::Registry::decode(payload);
    const std::uint64_t lines = payload.u64();
    for (std::uint64_t i = 0; i < lines; ++i) {
      snap.metric_lines.push_back(payload.str());
    }
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
