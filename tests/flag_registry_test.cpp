// The table-driven flag registry (session/flag_registry.hpp): structural
// invariants, CLI/env agreement, the generated markdown table, and the
// --scenario flag's plumbing into ScanConfig.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "session/flag_registry.hpp"
#include "session/scan_config.hpp"

namespace spfail {
namespace {

using session::FlagDef;
using session::ScanConfig;
using session::ScanConfigError;

ScanConfig parse(std::vector<const char*> args) {
  args.insert(args.begin(), "spfail_scan");
  return ScanConfig::from_args(static_cast<int>(args.size()), args.data());
}

TEST(FlagRegistry, FlagsAndEnvVarsAreUniqueAndDocumented) {
  std::set<std::string> flags, envs;
  for (const FlagDef& def : session::flag_registry()) {
    ASSERT_NE(def.flag, nullptr);
    EXPECT_TRUE(std::string_view(def.flag).starts_with("--")) << def.flag;
    EXPECT_TRUE(flags.insert(def.flag).second) << "duplicate " << def.flag;
    if (def.env != nullptr) {
      EXPECT_TRUE(std::string_view(def.env).starts_with("SPFAIL_"))
          << def.env;
      EXPECT_TRUE(envs.insert(def.env).second) << "duplicate " << def.env;
    }
    EXPECT_NE(def.doc, nullptr);
    EXPECT_FALSE(std::string_view(def.doc).empty()) << def.flag;
    EXPECT_NE(def.default_doc, nullptr);
    EXPECT_NE(def.apply, nullptr);
  }
  // The full surface is present; --scenario registered with it.
  for (const char* flag :
       {"--scale", "--seed", "--scenario", "--threads", "--initial-only",
        "--fault-rate", "--fault-seed", "--csv", "--trace", "--metrics",
        "--metrics-wall", "--checkpoint", "--checkpoint-every", "--resume",
        "--halt-after-rounds"}) {
    EXPECT_TRUE(flags.contains(flag)) << flag << " missing from registry";
  }
  // The deleted scheduler, fleet-lane, scenario-replay and intern-section
  // knobs stay deleted.
  for (const char* flag : {"--sched", "--steal-mode", "--lazy-hosts",
                           "--scenario-rounds", "--checkpoint-strings"}) {
    EXPECT_FALSE(flags.contains(flag)) << flag << " is back in the registry";
  }
  for (const char* env : {"SPFAIL_SCHED", "SPFAIL_LAZY_HOSTS",
                          "SPFAIL_SCENARIO_ROUNDS",
                          "SPFAIL_CHECKPOINT_STRINGS"}) {
    EXPECT_FALSE(envs.contains(env)) << env << " is back in the registry";
  }
  // SPFAIL_THREADS and SPFAIL_STEAL are deliberately absent: the thread
  // pool resolves them itself, so the registry must not also consume them.
  EXPECT_FALSE(envs.contains("SPFAIL_THREADS"));
  EXPECT_FALSE(envs.contains("SPFAIL_STEAL"));
  EXPECT_TRUE(envs.contains("SPFAIL_SCENARIO"));
}

TEST(FlagRegistry, FindFlagResolvesExactNamesOnly) {
  ASSERT_NE(session::find_flag("--scale"), nullptr);
  EXPECT_STREQ(session::find_flag("--scale")->env, "SPFAIL_SCALE");
  EXPECT_EQ(session::find_flag("--scal"), nullptr);
  EXPECT_EQ(session::find_flag("scale"), nullptr);
  EXPECT_EQ(session::find_flag(""), nullptr);
}

TEST(FlagRegistry, MarkdownTableCoversEveryFlag) {
  const std::string table = session::flag_table_markdown();
  for (const FlagDef& def : session::flag_registry()) {
    EXPECT_NE(table.find("`" + std::string(def.flag)), std::string::npos)
        << def.flag << " missing from generated table";
    if (def.env != nullptr) {
      EXPECT_NE(table.find(def.env), std::string::npos) << def.env;
    }
    EXPECT_NE(table.find(def.doc), std::string::npos) << def.flag;
  }
  // Switches render bare; valued flags render with their placeholder.
  EXPECT_NE(table.find("`--initial-only`"), std::string::npos);
  EXPECT_NE(table.find("`--scale RATE`"), std::string::npos);
}

TEST(FlagRegistry, RegistryDrivenParsingMatchesTheOldSurface) {
  const ScanConfig config =
      parse({"--scale", "0.25", "--seed", "7", "--threads", "2",
             "--initial-only", "--fault-rate", "0.5"});
  EXPECT_DOUBLE_EQ(config.scale, 0.25);
  EXPECT_EQ(config.fleet_seed, 7u);
  EXPECT_EQ(config.threads, 2);
  EXPECT_TRUE(config.initial_only);
  EXPECT_DOUBLE_EQ(config.faults.rate, 0.5);
  EXPECT_THROW(parse({"--scale", "x"}), ScanConfigError);
  EXPECT_THROW(parse({"--scale"}), ScanConfigError);
  EXPECT_THROW(parse({"--no-such-flag"}), ScanConfigError);
  // The deleted knobs are unknown flags now, with or without a value.
  EXPECT_THROW(parse({"--sched", "static"}), ScanConfigError);
  EXPECT_THROW(parse({"--steal-mode", "adversarial"}), ScanConfigError);
  EXPECT_THROW(parse({"--lazy-hosts"}), ScanConfigError);
}

TEST(FlagRegistry, ScenarioFlagParsesAndValidates) {
  EXPECT_EQ(parse({}).scenario, "");
  const ScanConfig config = parse({"--scenario", "forwarding,misconfig"});
  EXPECT_EQ(config.scenario, "forwarding,misconfig");
  EXPECT_NO_THROW(parse({"--scenario", "baseline"}));
  // Unknown names are rejected at validate() with the valid list attached.
  try {
    parse({"--scenario", "bogus"});
    FAIL() << "expected ScanConfigError";
  } catch (const ScanConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--scenario"), std::string::npos);
    EXPECT_NE(what.find("forwarding"), std::string::npos);
  }
  EXPECT_THROW(parse({"--scenario", "forwarding,forwarding"}),
               ScanConfigError);
}

}  // namespace
}  // namespace spfail
