// Scratch directories for tests that write files.
//
// Every test process gets its own root under ::testing::TempDir(), so two
// copies of one test binary sharing a TEST_TMPDIR (ctest -j, a repeat
// loop, two checkouts) never remove or reuse each other's directories.
// The root's name is fixed once per process, at static initialisation:
// a forked child (the kill-9 torture) sees its parent's root.  The
// process that made the root removes it at exit; a forked child leaves it.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <random>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace ppuf::test {

class ProcessTempRoot {
 public:
  ProcessTempRoot()
      : owner_(::getpid()),
        path_(std::filesystem::path(::testing::TempDir()) /
              ("ppuf_test_" + std::to_string(owner_) + "_" +
               std::to_string(std::random_device{}()))) {}
  ~ProcessTempRoot() {
    if (::getpid() != owner_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ProcessTempRoot(const ProcessTempRoot&) = delete;
  ProcessTempRoot& operator=(const ProcessTempRoot&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  pid_t owner_;
  std::filesystem::path path_;
};

inline const ProcessTempRoot kProcessTempRoot;

/// A fresh (removed if present, not created) directory `name` under this
/// process's root.
inline std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir = kProcessTempRoot.path() / name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(kProcessTempRoot.path(), ec);
  return dir.string();
}

}  // namespace ppuf::test
