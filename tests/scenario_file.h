// Reads one file of the shipped scenario corpus.  tests/CMakeLists.txt
// compiles MTDS_SCENARIO_DIR in as the source tree's scenarios/ directory,
// so a test finds the corpus from any build directory.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace mtds::test {

inline std::string read_scenario(const std::string& name) {
  const std::string path = std::string(MTDS_SCENARIO_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "scenario file not found: " << path;
    return "";
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace mtds::test
