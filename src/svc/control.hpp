// The scriptable control front end of the scan service (DESIGN.md §18).
//
// The service owns no socket: operators (and the smoke tests) drive it by
// appending lines to a control file the ServiceLoop re-reads every tick.
// The grammar is deliberately tiny and line-oriented:
//
//   submit <id> [key value]...   queue a job (keys mirror the scan flags:
//                                scale, seed, study-seed, threads, scenario,
//                                fault-rate, fault-seed, priority, recur,
//                                runs, nets)
//   status                       write <dir>/status.txt atomically
//   drain                        finish queued/running jobs, then exit
//   at <tick> <command...>       defer a command until the given tick
//
// '#' starts a comment; blank lines are ignored. Values parse with the same
// strict full-string parsers as the flag registry — a typo is a hard
// ControlError naming the line, never a silently-zero job.
//
// Consumption is positional and strictly in file order: the service state
// records how many commands it has consumed, so a restart re-parses the
// file and skips exactly the consumed prefix — appending while the service
// is down is safe, rewriting history is detected as a count mismatch. An
// `at`-deferred command blocks the commands behind it until its tick, which
// keeps "submit a, at 30 submit b, submit c" meaning what it reads as.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "svc/job.hpp"

namespace spfail::svc {

// Malformed control input. The message carries the 1-based line number.
class ControlError : public std::runtime_error {
 public:
  explicit ControlError(const std::string& what)
      : std::runtime_error("control: " + what) {}
};

struct Command {
  enum class Kind : std::uint8_t { Submit = 1, Status = 2, Drain = 3 };
  Kind kind = Kind::Status;
  std::uint64_t at_tick = 0;  // earliest service tick this may take effect
  JobSpec spec;               // Submit only
};

std::string to_string(Command::Kind kind);

// Parse a whole control file's text. Throws ControlError on any malformed
// line (the service treats that as fatal: a half-understood script must not
// half-run).
std::vector<Command> parse_control_text(std::string_view text);

// Read + parse `path`. A missing file is an empty script, not an error —
// the operator simply has not written commands yet.
std::vector<Command> read_control_file(const std::string& path);

}  // namespace spfail::svc
