// spfail_svc: the long-running scan service (DESIGN.md §18) — spfaild in
// binary form. Operators point it at a state directory and a control file;
// the service multiplexes the submitted scan jobs through admission control,
// checkpoints each independently, and survives being killed at any moment:
// restarting with the same flags resumes from <dir>/svc_state plus the
// per-job checkpoints and produces byte-identical reports, event log, and
// metric files.
//
//   usage: spfail_svc [--dir DIR] [--control PATH] [--max-active-jobs N]
//                     [--rounds-per-tick N] [--bucket-capacity N]
//                     [--bucket-refill N] [--breaker-threshold N]
//                     [--breaker-cooldown N] [--defer-budget N]
//                     [--max-ticks N] [--metrics PATH] [--flag-table]
//
// Every flag also reads from its SPFAIL_SVC_* environment variable; run
// `spfail_svc --flag-table` for the generated reference table (the README's
// service section).
//
// Control file grammar (re-read every tick, consumed strictly in order):
//
//   submit <id> [scale S] [seed N] [study-seed N] [threads N]
//               [scenario NAMES] [fault-rate R] [fault-seed N]
//               [priority N] [recur TICKS] [runs N] [nets A,B,C]
//   status                # write <dir>/status.txt
//   drain                 # finish everything queued/running, then exit
//   at <tick> <command>   # defer a command until the given tick
//
// Exit codes: 0 drained, 3 tick budget exhausted, 42 test-kill fired,
// 2 configuration, control-script or state error (a corrupt or older-format
// svc_state, or a log shorter than the length svc_state committed).
//
// Test hook: SPFAIL_SVC_TEST_KILL="TICK:POINT" (POINT one of admission,
// ckpt, report, logs, state) hard-exits the process at the matching
// side-effect boundary — the restart smoke test's stand-in for SIGKILL.
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "session/flag_parse.hpp"
#include "snapshot/snapshot.hpp"
#include "svc/service.hpp"

namespace {

using namespace spfail;

svc::KillPoint parse_kill_point(std::string_view name) {
  if (name == "admission") return svc::KillPoint::AfterAdmission;
  if (name == "ckpt") return svc::KillPoint::AfterJobCheckpoint;
  if (name == "report") return svc::KillPoint::AfterReportWrite;
  if (name == "logs") return svc::KillPoint::AfterLogAppend;
  if (name == "state") return svc::KillPoint::AfterStateSave;
  session::reject_value("SPFAIL_SVC_TEST_KILL", name,
                        "admission/ckpt/report/logs/state");
}

svc::ServiceOptions options_from_env() {
  svc::ServiceOptions options;
  options.log = &std::cerr;
  if (const char* kill = std::getenv("SPFAIL_SVC_TEST_KILL")) {
    const std::string_view text = kill;
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos) {
      session::reject_value("SPFAIL_SVC_TEST_KILL", text, "TICK:POINT");
    }
    svc::ServiceOptions::KillAt kill_at;
    kill_at.tick = session::parse_u64("SPFAIL_SVC_TEST_KILL",
                                     std::string(text.substr(0, colon)).c_str());
    kill_at.point = parse_kill_point(text.substr(colon + 1));
    options.kill_at = kill_at;
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--flag-table") {
      std::cout << svc::svc_flag_table_markdown();
      return 0;
    }
  }
  try {
    svc::ServiceLoop loop(svc::svc_config_from_args(argc, argv),
                          options_from_env());
    const svc::ServiceLoop::Status status = loop.run();
    std::cerr << "spfail_svc: " << svc::to_string(status) << " after "
              << loop.ticks() << " tick(s)\n";
    switch (status) {
      case svc::ServiceLoop::Status::Drained:
        return 0;
      case svc::ServiceLoop::Status::MaxTicks:
        return 3;
      case svc::ServiceLoop::Status::Killed:
        // Mimic the kill it simulates: stop dead, no unwinding, no flushes.
        std::_Exit(42);
    }
    return 0;
  } catch (const session::ScanConfigError& error) {
    std::cerr << "spfail_svc: " << error.what() << "\n";
    return 2;
  } catch (const svc::ControlError& error) {
    std::cerr << "spfail_svc: " << error.what() << "\n";
    return 2;
  } catch (const snapshot::SnapshotError& error) {
    std::cerr << "spfail_svc: " << error.what() << "\n";
    return 2;
  }
}
