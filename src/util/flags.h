// Tiny command-line flag parser for bench and example binaries.
//
// Supports --name=value and --name value forms plus boolean --name.
// Header-only; binaries define flags locally and query after parse().  The
// numeric getters throw std::invalid_argument naming the flag when its
// value is empty, out of range or has trailing junk ("--seconds=abc").
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace mtds::util {

class Flags {
 public:
  // Parses argv; unknown positional arguments are collected in positional().
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg.erase(0, 2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  std::string get(const std::string& name, const std::string& def = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  double get_double(const std::string& name, double def) const {
    auto it = values_.find(name);
    if (it == values_.end()) return def;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    check_number(name, text, end);
    return v;
  }

  long get_int(const std::string& name, long def) const {
    auto it = values_.find(name);
    if (it == values_.end()) return def;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    check_number(name, text, end);
    return v;
  }

  bool get_bool(const std::string& name, bool def) const {
    auto it = values_.find(name);
    if (it == values_.end()) return def;
    return it->second != "false" && it->second != "0";
  }

  // Splits a comma-separated flag into its non-empty items ("1,2,,3" ->
  // {"1","2","3"}); an absent flag yields an empty list.
  std::vector<std::string> get_list(const std::string& name) const {
    std::vector<std::string> items;
    const std::string csv = get(name, "");
    std::size_t pos = 0;
    while (pos <= csv.size()) {
      const auto comma = csv.find(',', pos);
      const auto end = comma == std::string::npos ? csv.size() : comma;
      if (end > pos) items.push_back(csv.substr(pos, end - pos));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return items;
  }

  // Comma-separated UDP port list ("9001,9002"); items that don't parse as
  // a port are skipped rather than aborting the process.
  std::vector<std::uint16_t> get_ports(const std::string& name) const {
    std::vector<std::uint16_t> ports;
    for (const std::string& item : get_list(name)) {
      char* end = nullptr;
      const unsigned long value = std::strtoul(item.c_str(), &end, 10);
      if (end == item.c_str() || *end != '\0' || value > 0xFFFF) continue;
      ports.push_back(static_cast<std::uint16_t>(value));
    }
    return ports;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  // After strtod/strtol: the whole value must have parsed, in range.
  static void check_number(const std::string& name, const char* text,
                           const char* end) {
    if (end == text || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument("--" + name + ": not a number in range: '" +
                                  text + "'");
    }
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mtds::util
