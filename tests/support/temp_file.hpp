// A temp-directory path that is unique per process and per use, removed
// on destruction.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>

namespace dlscale::testing {

// ctest runs each gtest case as its own process, so parameterized
// instantiations of one test (e.g. the scalar and avx2 twins) can run
// concurrently; the filename must be unique per process (and per use
// within a process) or one process's TempFile destructor deletes the file
// another is still using.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    static std::atomic<unsigned> counter{0};
    path = (std::filesystem::temp_directory_path() /
            ("dlscale_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)) + "_" + name))
               .string();
  }
  ~TempFile() { std::remove(path.c_str()); }
};

}  // namespace dlscale::testing
