// Per-process scratch paths for tests.
//
// ctest runs every case in its own process, and the sanitizer lanes
// (asan_faults, ubsan_net, tsan_lockfree) re-run whole suites in one process
// while the cases' own entries run beside them under `ctest -j`. A fixed name
// under testing::TempDir() can therefore be in use by two live processes at
// once. scratch_path() puts the process id into every name, and the process
// removes what it named when it exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace spfail::testutil {

// testing::TempDir() + "spfail_<pid>_" + name: a file or directory path no
// other process uses. Nothing is created; the path is removed at exit.
inline std::string scratch_path(std::string_view name) {
  struct RemoveAtExit {
    std::vector<std::string> paths;
    ~RemoveAtExit() {
      std::error_code ignored;
      for (const std::string& path : paths) {
        std::filesystem::remove_all(path, ignored);
      }
    }
  };
  static RemoveAtExit named;
  std::string path = testing::TempDir() + "spfail_" +
                     std::to_string(::getpid()) + "_" + std::string(name);
  named.paths.push_back(path);
  return path;
}

}  // namespace spfail::testutil
