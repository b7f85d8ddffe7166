#include "svc/control.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "session/flag_parse.hpp"

namespace spfail::svc {

namespace {

// Split one line into whitespace-separated tokens.
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw ControlError("line " + std::to_string(line_no) + ": " + what);
}

std::vector<std::uint64_t> parse_nets(std::size_t line_no,
                                      const std::string& text) {
  std::vector<std::uint64_t> nets;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    if (item.empty()) fail(line_no, "nets: empty element in '" + text + "'");
    nets.push_back(session::parse_u64("nets", item.c_str()));
  }
  if (nets.empty()) fail(line_no, "nets: expected a comma-separated list");
  return nets;
}

JobSpec parse_submit(std::size_t line_no,
                     const std::vector<std::string>& tokens,
                     std::size_t start) {
  if (start >= tokens.size()) fail(line_no, "submit: missing job id");
  JobSpec spec;
  spec.id = tokens[start];
  for (std::size_t i = start + 1; i < tokens.size(); i += 2) {
    const std::string& key = tokens[i];
    if (i + 1 >= tokens.size()) {
      fail(line_no, "submit: missing value for key '" + key + "'");
    }
    const char* value = tokens[i + 1].c_str();
    if (key == "scale") {
      spec.scale = session::parse_double(key, value);
    } else if (key == "seed") {
      spec.seed = session::parse_u64(key, value);
    } else if (key == "study-seed") {
      spec.study_seed = session::parse_u64(key, value);
    } else if (key == "threads") {
      spec.threads = session::parse_int(key, value);
    } else if (key == "scenario") {
      spec.scenario = value;
    } else if (key == "fault-rate") {
      spec.fault_rate = session::parse_double(key, value);
    } else if (key == "fault-seed") {
      spec.fault_seed = session::parse_u64(key, value);
    } else if (key == "priority") {
      spec.priority = session::parse_int(key, value);
    } else if (key == "recur") {
      spec.recur = session::parse_u64(key, value);
    } else if (key == "runs") {
      const std::uint64_t runs = session::parse_u64(key, value);
      if (runs > std::numeric_limits<std::uint32_t>::max()) {
        fail(line_no, "runs must be at most " +
                          std::to_string(
                              std::numeric_limits<std::uint32_t>::max()) +
                          ", got " + tokens[i + 1]);
      }
      spec.runs = static_cast<std::uint32_t>(runs);
    } else if (key == "nets") {
      spec.nets = parse_nets(line_no, tokens[i + 1]);
    } else {
      fail(line_no, "submit: unknown key '" + key + "'");
    }
  }
  try {
    spec.validate();
  } catch (const session::ScanConfigError& error) {
    fail(line_no, error.what());
  }
  return spec;
}

}  // namespace

std::string to_string(Command::Kind kind) {
  switch (kind) {
    case Command::Kind::Submit: return "submit";
    case Command::Kind::Status: return "status";
    case Command::Kind::Drain: return "drain";
  }
  return "unknown";
}

std::vector<Command> parse_control_text(std::string_view text) {
  std::vector<Command> commands;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, end == std::string_view::npos ? std::string_view::npos
                                           : end - pos);
    ++line_no;
    pos = end == std::string_view::npos ? text.size() + 1 : end + 1;

    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;

    Command command;
    try {
      std::size_t verb = 0;
      if (tokens[0] == "at") {
        if (tokens.size() < 3) {
          fail(line_no, "at: expected 'at TICK COMMAND'");
        }
        command.at_tick = session::parse_u64("at", tokens[1].c_str());
        verb = 2;
      }
      const std::string& name = tokens[verb];
      if (name == "submit") {
        command.kind = Command::Kind::Submit;
        command.spec = parse_submit(line_no, tokens, verb + 1);
      } else if (name == "status") {
        command.kind = Command::Kind::Status;
        if (tokens.size() > verb + 1) {
          fail(line_no, "status takes no arguments");
        }
      } else if (name == "drain") {
        command.kind = Command::Kind::Drain;
        if (tokens.size() > verb + 1) {
          fail(line_no, "drain takes no arguments");
        }
      } else {
        fail(line_no, "unknown command '" + name + "'");
      }
    } catch (const session::ScanConfigError& error) {
      // The strict value parsers throw the flag-surface error; re-raise it
      // with the control file's line number attached.
      fail(line_no, error.what());
    }
    commands.push_back(std::move(command));
  }
  return commands;
}

std::vector<Command> read_control_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_control_text(buffer.str());
}

}  // namespace spfail::svc
