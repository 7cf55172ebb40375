// Byte-for-byte comparison against the checked-in files under tests/golden/,
// shared by the suites that pin artifacts there (their targets define
// AUTOPIPE_GOLDEN_DIR). Setting AUTOPIPE_REGEN_GOLDEN rewrites the files
// instead; do that only for an intended format or behaviour change.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace autopipe::test_golden {

/// Compare `actual` with the checked-in golden file `name`, or rewrite the
/// file when AUTOPIPE_REGEN_GOLDEN is set.
inline void expect_matches_golden(const std::string& name,
                                  const std::string& actual) {
  const std::string path = std::string(AUTOPIPE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("AUTOPIPE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with AUTOPIPE_REGEN_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << name << " drifted from the golden file; if the change is intended, "
         "regenerate with AUTOPIPE_REGEN_GOLDEN=1";
}

}  // namespace autopipe::test_golden
