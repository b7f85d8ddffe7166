// The §14 interning layer: Symbol assignment determinism, shard-order merge,
// wire round-trips, the QueryLog qname dedupe built on it, the lazy/streaming
// fleet's equivalence to the eager one, and the optional snapshot strings
// section.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dns/query_log.hpp"
#include "population/fleet.hpp"
#include "report/tables.hpp"
#include "scan/campaign.hpp"
#include "session/scan_session.hpp"
#include "snapshot/snapshot.hpp"
#include "util/intern.hpp"

namespace spfail {
namespace {

// ------------------------------------------------------------------ Interner

TEST(Intern, IdsFollowInsertionOrder) {
  util::Interner interner;
  EXPECT_EQ(interner.intern("alpha"), 0u);
  EXPECT_EQ(interner.intern("beta"), 1u);
  EXPECT_EQ(interner.intern("alpha"), 0u);  // repeat: same id
  EXPECT_EQ(interner.intern("gamma"), 2u);
  EXPECT_EQ(interner.view(0), "alpha");
  EXPECT_EQ(interner.view(1), "beta");
  EXPECT_EQ(interner.view(2), "gamma");
  EXPECT_EQ(interner.size(), 3u);
}

TEST(Intern, StatsSeparateHitsFromMisses) {
  util::Interner interner;
  interner.intern("one");
  interner.intern("two");
  interner.intern("one");
  interner.intern("one");
  EXPECT_EQ(interner.misses(), 2u);
  EXPECT_EQ(interner.hits(), 2u);
  EXPECT_EQ(interner.distinct_bytes(), 6u);  // "one" + "two" stored once each
}

TEST(Intern, FindDoesNotInsertOrCount) {
  util::Interner interner;
  interner.intern("present");
  const std::uint64_t hits = interner.hits();
  const std::uint64_t misses = interner.misses();
  EXPECT_EQ(interner.find("present"), 0u);
  EXPECT_EQ(interner.find("absent"), util::kInvalidSymbol);
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.hits(), hits);
  EXPECT_EQ(interner.misses(), misses);
}

TEST(Intern, ViewsStayValidAcrossArenaGrowth) {
  // Force multiple 64KB chunks and a few rehashes; early views must survive.
  util::Interner interner;
  const std::string_view first = interner.view(interner.intern("the-first"));
  std::vector<std::string> expected;
  for (int i = 0; i < 4000; ++i) {
    expected.push_back("padding-string-number-" + std::to_string(i));
    interner.intern(expected.back());
  }
  EXPECT_EQ(first, "the-first");
  for (int i = 0; i < 4000; ++i) {
    EXPECT_EQ(interner.view(static_cast<util::Symbol>(i + 1)), expected[i]);
  }
}

TEST(InternMerge, RemapTranslatesShardIds) {
  util::Interner master, shard;
  master.intern("shared");
  shard.intern("private");  // shard id 0
  shard.intern("shared");   // shard id 1
  const std::vector<util::Symbol> remap = master.merge(shard);
  ASSERT_EQ(remap.size(), 2u);
  EXPECT_EQ(master.view(remap[0]), "private");
  EXPECT_EQ(master.view(remap[1]), "shared");
  EXPECT_EQ(remap[1], 0u);  // folded onto the pre-existing entry
}

TEST(InternMerge, ContiguousShardFoldMatchesSerialOrder) {
  // The campaign discipline: shards own contiguous slices of a deterministic
  // stream and are folded in shard-index order. The folded table must equal
  // serial interning regardless of how many shards the stream was cut into.
  std::vector<std::string> stream;
  for (int i = 0; i < 200; ++i) stream.push_back("s" + std::to_string(i % 37));

  util::Interner serial;
  for (const auto& s : stream) serial.intern(s);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    std::vector<util::Interner> lanes(shards);
    const std::size_t per = (stream.size() + shards - 1) / shards;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      lanes[i / per].intern(stream[i]);
    }
    util::Interner folded;
    for (auto& lane : lanes) folded.merge(lane);
    EXPECT_TRUE(folded == serial) << shards << " shards";
  }
}

TEST(InternCodec, RoundTripPreservesOrderAndStrings) {
  util::Interner interner;
  interner.intern("a");
  interner.intern("");  // empty string is a legal entry
  interner.intern("domain.example.com");
  snapshot::Writer w;
  interner.encode(w);
  snapshot::Reader r(w.bytes());
  const util::Interner decoded = util::Interner::decode(r);
  r.expect_done();
  EXPECT_TRUE(decoded == interner);
  EXPECT_EQ(decoded.view(2), "domain.example.com");
}

TEST(InternCodec, RejectsCorruptedBody) {
  util::Interner interner;
  interner.intern("checksummed-content");
  snapshot::Writer w;
  interner.encode(w);
  std::string bytes(w.bytes());
  bytes[bytes.size() / 2] ^= 0x01;
  snapshot::Reader r(bytes);
  EXPECT_THROW(util::Interner::decode(r), snapshot::SnapshotError);
}

TEST(InternCodec, RejectsDuplicateStrings) {
  // Hand-build a body whose string list repeats an entry: decode must refuse
  // it, because Symbol ids would silently shift for everything after it.
  snapshot::Writer body;
  body.u32(2);
  body.str("dup");
  body.str("dup");
  std::uint64_t checksum = 1469598103934665603ULL;
  for (const char c : body.bytes()) {
    checksum ^= static_cast<std::uint8_t>(c);
    checksum *= 1099511628211ULL;
  }
  snapshot::Writer w;
  w.u32(static_cast<std::uint32_t>(body.bytes().size()));
  w.u64(checksum);
  for (const char c : body.bytes()) w.u8(static_cast<std::uint8_t>(c));
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(util::Interner::decode(r), snapshot::SnapshotError);
}

TEST(InternSync, ConcurrentInternsConverge) {
  util::SyncInterner interner;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&interner] {
      for (int i = 0; i < 200; ++i) {
        interner.intern("shared-" + std::to_string(i % 50));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(interner.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    const std::string text = "shared-" + std::to_string(i);
    EXPECT_EQ(interner.view(interner.intern(text)), text);
  }
}

// ------------------------------------------------------------------ QueryLog

dns::QueryLogEntry entry_for(const std::string& qname, util::SimTime time) {
  dns::QueryLogEntry e;
  e.time = time;
  e.client = util::IpAddress::v4(10, 0, 0, 1);
  e.qname = dns::Name::from_string(qname);
  e.qtype = dns::RRType::TXT;
  return e;
}

TEST(QueryLogDedupe, RepeatedQnamesStoreOneCopy) {
  dns::QueryLog log;
  for (int i = 0; i < 100; ++i) log.record(entry_for("probe.example.com", i));
  log.record(entry_for("other.example.com", 100));
  EXPECT_EQ(log.size(), 101u);
  EXPECT_EQ(log.names().size(), 2u);  // two distinct qnames stored
  EXPECT_EQ(log.names().misses(), 2u);
  EXPECT_EQ(log.names().hits(), 99u);
  // Materialisation still reproduces every entry faithfully.
  const auto entries = log.entries();
  EXPECT_EQ(entries[50].qname.to_string(), "probe.example.com");
  EXPECT_EQ(entries[100].qname.to_string(), "other.example.com");
}

TEST(QueryLogDedupe, ForEachUnderBoundaries) {
  dns::QueryLog log;
  log.record(entry_for("bar.com", 1));      // exact match
  log.record(entry_for("foo.bar.com", 2));  // true subdomain
  log.record(entry_for("xbar.com", 3));     // text suffix but not a subdomain
  log.record(entry_for("ar.com", 4));       // suffix of the suffix
  log.record(entry_for("other.org", 5));

  std::vector<util::SimTime> matched;
  log.for_each_under(dns::Name::from_string("bar.com"),
                     [&](const dns::QueryLogEntry& e) {
                       matched.push_back(e.time);
                     });
  EXPECT_EQ(matched, (std::vector<util::SimTime>{1, 2}));

  std::size_t everything = 0;
  log.for_each_under(dns::Name::root(),
                     [&](const dns::QueryLogEntry&) { ++everything; });
  EXPECT_EQ(everything, 5u);

  std::size_t from_cursor = 0;
  log.for_each_under_from(2, dns::Name::from_string("bar.com"),
                          [&](const dns::QueryLogEntry&) { ++from_cursor; });
  EXPECT_EQ(from_cursor, 0u);  // both matches precede the cursor
}

TEST(QueryLogDedupe, SpliceRemapsSymbols) {
  dns::QueryLog a, b;
  a.record(entry_for("one.example", 1));
  a.record(entry_for("two.example", 2));
  b.record(entry_for("two.example", 3));  // same text, different shard id
  b.record(entry_for("three.example", 4));
  a.splice(std::move(b));
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.names().size(), 3u);  // union of distinct qnames
  const auto entries = a.entries();
  EXPECT_EQ(entries[2].qname.to_string(), "two.example");
  EXPECT_EQ(entries[3].qname.to_string(), "three.example");
  EXPECT_EQ(entries[2].time, 3);
}

// The study splices one lane log per batch into the authoritative log every
// round; a long run of small splices must reproduce a serial recording
// exactly, and leave each lane log empty and ready for reuse.
TEST(QueryLogDedupe, SplicingManyLaneLogsEqualsRecordingSerially) {
  constexpr int kLanes = 2000;
  const auto qname = [](int i) {
    return "q" + std::to_string(i % 37) + ".probe.example";  // repeats
  };
  dns::QueryLog serial;
  std::vector<dns::QueryLog> lanes(kLanes);
  for (int i = 0; i < kLanes; ++i) {
    serial.record(entry_for(qname(i), i));
    lanes[i].record(entry_for(qname(i), i));
  }
  dns::QueryLog merged;
  for (auto& lane : lanes) merged.splice(std::move(lane));

  ASSERT_EQ(merged.size(), serial.size());
  EXPECT_EQ(merged.names().size(), serial.names().size());
  EXPECT_EQ(merged.names().size(), 37u);
  EXPECT_TRUE(merged.names() == serial.names());  // same Symbol order
  const auto got = merged.entries();
  const auto want = serial.entries();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << i;
    EXPECT_EQ(got[i].client, want[i].client) << i;
    EXPECT_EQ(got[i].qname, want[i].qname) << i;
    EXPECT_EQ(got[i].qtype, want[i].qtype) << i;
  }

  for (const auto& lane : lanes) {
    EXPECT_EQ(lane.size(), 0u);
    EXPECT_TRUE(lane.names().empty());
  }
  lanes[7].record(entry_for("reuse.probe.example", kLanes));
  ASSERT_EQ(lanes[7].size(), 1u);
  EXPECT_EQ(lanes[7].entries()[0].qname.to_string(), "reuse.probe.example");
  merged.splice(std::move(lanes[7]));
  EXPECT_EQ(merged.size(), serial.size() + 1);
  EXPECT_EQ(merged.entries().back().time, kLanes);
}

// ------------------------------------------------- lazy fleet ≡ eager fleet

std::string campaign_digest(population::Fleet& fleet, bool streaming) {
  scan::CampaignConfig config;
  config.prober.responder = fleet.responder();
  config.threads = 2;
  scan::Campaign campaign(config, fleet.dns(), fleet.clock(), fleet);
  const scan::CampaignReport report =
      streaming ? campaign.run(fleet.target_source())
                : campaign.run(fleet.targets());
  std::ostringstream os;
  os << report::table3_outcomes(fleet, report)
     << report::table4_breakdown(fleet, report)
     << report::table7_behaviors(fleet, report)
     << "clock=" << fleet.clock().now()
     << " queries=" << fleet.dns().query_log().size();
  return os.str();
}

TEST(InternFleet, LazyStreamingCampaignMatchesEagerMaterialised) {
  population::FleetConfig config;
  config.scale = 0.008;
  population::Fleet eager(config);
  config.lazy_hosts = true;
  population::Fleet lazy(config);

  EXPECT_TRUE(eager.strings() == lazy.strings());
  EXPECT_EQ(lazy.live_hosts(), 0u);  // nothing materialised before probing

  const std::string eager_digest = campaign_digest(eager, /*streaming=*/false);
  const std::string lazy_digest = campaign_digest(lazy, /*streaming=*/true);
  EXPECT_EQ(eager_digest, lazy_digest);
  // Streaming eviction: every probed host was released again.
  EXPECT_EQ(lazy.live_hosts(), 0u);
  EXPECT_EQ(eager.live_hosts(), eager.address_count());
}

TEST(InternFleet, TargetSourceMatchesMaterialisedTargets) {
  population::FleetConfig config;
  config.scale = 0.008;
  population::Fleet fleet(config);
  for (const auto filter :
       {population::Fleet::SetFilter::All,
        population::Fleet::SetFilter::AlexaTopList,
        population::Fleet::SetFilter::Alexa1000,
        population::Fleet::SetFilter::TwoWeekMx}) {
    const auto materialised = fleet.targets(filter);
    const auto view = fleet.target_source(filter);
    EXPECT_EQ(view.domain_count(), materialised.size());
    std::size_t i = 0, addresses = 0;
    view.for_each([&](std::string_view name,
                      std::span<const util::IpAddress> addrs) {
      ASSERT_LT(i, materialised.size());
      EXPECT_EQ(name, materialised[i].domain);
      ASSERT_EQ(addrs.size(), materialised[i].addresses.size());
      for (std::size_t j = 0; j < addrs.size(); ++j) {
        EXPECT_EQ(addrs[j], materialised[i].addresses[j]);
      }
      addresses += addrs.size();
      ++i;
    });
    EXPECT_EQ(i, materialised.size());
    EXPECT_LE(addresses, view.address_upper_bound());
  }
}

// ------------------------------------------------- snapshot strings section

snapshot::StudySnapshot tiny_snapshot() {
  snapshot::StudySnapshot snap;
  snap.meta.kind = snapshot::SnapshotKind::Campaign;
  snap.meta.fleet_seed = 2021;
  snap.meta.scale = 0.01;
  snap.clock_now = 1234;
  scan::CampaignReport initial;
  initial.suite_label = "suite0";
  snap.initial = snapshot::freeze(std::move(initial));
  return snap;
}

TEST(SnapshotStrings, AbsentSectionKeepsBytesIdentical) {
  const snapshot::StudySnapshot plain = tiny_snapshot();
  const std::string before = plain.encode();

  snapshot::StudySnapshot with = tiny_snapshot();
  with.has_strings = true;
  with.strings.intern("example.com");
  with.strings.intern("example.org");
  const std::string after = with.encode();

  EXPECT_NE(before, after);
  // A writer without the feature produces the exact pre-§14 byte stream.
  EXPECT_EQ(plain.encode(), before);

  const snapshot::StudySnapshot decoded_plain =
      snapshot::StudySnapshot::decode(before);
  EXPECT_FALSE(decoded_plain.has_strings);
  const snapshot::StudySnapshot decoded_with =
      snapshot::StudySnapshot::decode(after);
  ASSERT_TRUE(decoded_with.has_strings);
  EXPECT_TRUE(decoded_with.strings == with.strings);
}

TEST(SnapshotStrings, CoexistsWithMetricsSection) {
  snapshot::StudySnapshot snap = tiny_snapshot();
  snap.has_metrics = true;
  snap.metrics.counter("probes") += 7;
  snap.metric_lines.push_back("{\"phase\":\"initial\"}");
  snap.has_strings = true;
  snap.strings.intern("both-sections");
  const snapshot::StudySnapshot decoded =
      snapshot::StudySnapshot::decode(snap.encode());
  ASSERT_TRUE(decoded.has_metrics);
  ASSERT_TRUE(decoded.has_strings);
  EXPECT_EQ(decoded.metric_lines, snap.metric_lines);
  EXPECT_TRUE(decoded.strings == snap.strings);
}

TEST(SnapshotStrings, CorruptStringsPayloadRejected) {
  snapshot::StudySnapshot snap = tiny_snapshot();
  snap.has_strings = true;
  snap.strings.intern("to-be-corrupted");
  std::string bytes = snap.encode();
  bytes[bytes.size() - 12] ^= 0x01;  // inside the strings payload
  EXPECT_THROW(snapshot::StudySnapshot::decode(bytes),
               snapshot::SnapshotError);
}

TEST(SnapshotStrings, SessionVerifiesInternTableOnResume) {
  const std::string path = testing::TempDir() + "spfail_strings_ckpt.bin";

  session::ScanConfig config;
  config.scale = 0.004;
  config.initial_only = true;
  config.checkpoint_path = path;
  config.checkpoint_strings = true;
  session::ScanSession writer(config);
  writer.initial();

  // The matching fleet resumes fine and the snapshot really carries strings.
  snapshot::StudySnapshot snap =
      snapshot::StudySnapshot::decode(snapshot::load_file(path));
  ASSERT_TRUE(snap.has_strings);
  EXPECT_GT(snap.strings.size(), 0u);
  session::ScanConfig resuming;
  resuming.scale = 0.004;
  resuming.initial_only = true;
  resuming.resume_path = path;
  EXPECT_NO_THROW(session::ScanSession(resuming).initial());

  // Tamper with the embedded table (keeping the snapshot well-formed): the
  // resuming session must refuse the population mismatch.
  snap.strings = util::Interner();
  snap.strings.intern("not-the-fleet's-table");
  snapshot::save_atomically(path, snap.encode());
  session::ScanSession rejecting(resuming);
  EXPECT_THROW(rejecting.initial(), snapshot::SnapshotError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spfail
