#ifndef LEAPME_TESTS_TEMP_DIR_H_
#define LEAPME_TESTS_TEMP_DIR_H_

// A scratch directory private to the running test process. ctest runs
// every test as its own process (gtest_discover_tests), many at once under
// `ctest -j`, so a fixture file at a fixed name directly under
// ::testing::TempDir() can be rewritten by one process while another
// reads it. Paths from ProcessTempPath() cannot collide that way.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include <gtest/gtest.h>

namespace leapme::test {

/// `TempDir()/leapme.<pid>`: created on first use, removed with its
/// contents when the process exits.
inline const std::string& ProcessTempDir() {
  struct OwnedDir {
    std::string path;
    OwnedDir()
        : path(::testing::TempDir() + "/leapme." +
               std::to_string(::getpid())) {
      std::filesystem::create_directories(path);
    }
    ~OwnedDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const OwnedDir dir;
  return dir.path;
}

/// The path of file `name` inside ProcessTempDir().
inline std::string ProcessTempPath(std::string_view name) {
  return ProcessTempDir() + "/" + std::string(name);
}

}  // namespace leapme::test

#endif  // LEAPME_TESTS_TEMP_DIR_H_
