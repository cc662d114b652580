// Hermetic temp paths for tests. gtest_discover_tests runs every test as its
// own process, and ctest -j runs those processes concurrently, so a fixed
// name under testing::TempDir() is shared by every test that uses it — one
// test's remove_all() pulls the directory out from under another. Each path
// here lives in a directory named after the running test plus the pid.

#ifndef TESTS_TEMP_PATH_H_
#define TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace wdmlat::testutil {

// Removes every directory TestTempRoot created when the process exits
// normally (forked children that _Exit leave them to the parent).
struct TempRootCleanup {
  std::vector<std::filesystem::path> dirs;
  ~TempRootCleanup() {
    for (const std::filesystem::path& dir : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

// This test's private temp directory (created, not cleared).
inline std::filesystem::path TestTempRoot() {
  static TempRootCleanup cleanup;
  const testing::TestInfo* info = testing::UnitTest::GetInstance()->current_test_info();
  std::string stem = info == nullptr
                         ? std::string("no_test")
                         : std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : stem) {
    if (c == '/') {
      c = '_';  // parameterized names
    }
  }
  const std::filesystem::path dir = std::filesystem::path(testing::TempDir()) /
                                    ("wdmlat_" + stem + "_" + std::to_string(::getpid()));
  if (std::filesystem::create_directories(dir)) {
    cleanup.dirs.push_back(dir);
  }
  return dir;
}

// A fresh, empty directory `name` inside this test's temp directory.
inline std::string TempDirFor(const std::string& name) {
  const std::filesystem::path dir = TestTempRoot() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// A file path `name` inside this test's temp directory; any stale file
// of that name is removed.
inline std::string TempFileFor(const std::string& name) {
  const std::filesystem::path path = TestTempRoot() / name;
  std::filesystem::remove_all(path);
  return path.string();
}

}  // namespace wdmlat::testutil

#endif  // TESTS_TEMP_PATH_H_
