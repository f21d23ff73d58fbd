// Per-process, per-test scratch paths for the test suites.
//
// ctest runs every gtest case as its own process, many at once under
// `ctest -j`, so a fixed name under testing::TempDir() is shared by
// concurrently running cases that then overwrite or remove each other's
// files. Every path a test writes comes from TestTempPath instead.

#ifndef PGHIVE_TESTS_TEST_TEMP_H_
#define PGHIVE_TESTS_TEST_TEMP_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace pghive {

/// testing::TempDir()/pghive_<tag>_<pid>_<suite>.<test>: unique to this
/// process and the running test (parameterized names have their '/'
/// replaced). Nothing is created; callers own the path.
inline std::string TestTempPath(const std::string& tag) {
  std::string test = "no_test";
  if (const testing::TestInfo* info =
          testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
  }
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  return testing::TempDir() + "/pghive_" + tag + "_" +
         std::to_string(::getpid()) + "_" + test;
}

}  // namespace pghive

#endif  // PGHIVE_TESTS_TEST_TEMP_H_
