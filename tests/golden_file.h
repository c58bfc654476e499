#ifndef HERMES_TESTS_GOLDEN_FILE_H_
#define HERMES_TESTS_GOLDEN_FILE_H_

// Golden-file comparison shared by the tests that pin a rendering byte for
// byte (files live in tests/golden/). Regenerate after an intentional
// change by running the test binary with HERMES_UPDATE_GOLDENS=1.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/io.h"

namespace hermes::testing_golden {

inline std::string GoldenPath(const std::string& name) {
  return std::string(HERMES_TEST_SRCDIR) + "/golden/" + name;
}

inline void CompareGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("HERMES_UPDATE_GOLDENS") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(path, actual).ok());
    GTEST_SKIP() << "golden updated: " << path;
  }
  Result<std::string> expected = ReadFileToString(path);
  ASSERT_TRUE(expected.ok()) << "missing golden " << path
                             << " (run with HERMES_UPDATE_GOLDENS=1)";
  EXPECT_EQ(*expected, actual) << "output drifted from " << path
                               << "; regenerate with HERMES_UPDATE_GOLDENS=1 "
                                  "if the change is intentional";
}

}  // namespace hermes::testing_golden

#endif  // HERMES_TESTS_GOLDEN_FILE_H_
