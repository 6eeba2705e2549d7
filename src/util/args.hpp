// Minimal command-line flag parser for the CLI tools and examples.
// Supports --flag=value, --flag value, and boolean --flag forms; collects
// unknown flags as errors and prints a generated usage string.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mpcspan {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers a flag with a default value; returns *this for chaining.
  ArgParser& flag(const std::string& name, const std::string& defaultValue,
                  const std::string& help);

  /// Parses argv. Returns false (and fills error()) on unknown flags or
  /// missing values. "--help" sets helpRequested().
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// The whole value must parse to an integer in [lo, hi]: "300x", "abc",
  /// "" or a number outside the range throws std::invalid_argument naming
  /// the flag and the range.
  std::int64_t getInt(const std::string& name, std::int64_t lo,
                      std::int64_t hi) const;
  double getDouble(const std::string& name) const;
  /// One of true/1/yes/on or false/0/no/off; anything else throws
  /// std::invalid_argument naming the flag.
  bool getBool(const std::string& name) const;

  bool helpRequested() const { return helpRequested_; }
  const std::string& error() const { return error_; }
  std::string usage() const;

 private:
  struct Spec {
    std::string defaultValue;
    std::string help;
  };
  std::string program_;
  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  bool helpRequested_ = false;
  std::string error_;
};

/// Parses a TCP port given on the command line: decimal digits only, at
/// most 65535. A port to listen on may be 0 (ephemeral); a port to `dial`
/// must be at least 1. Anything else throws std::invalid_argument, which
/// every tool reports as a usage error (exit 2).
std::uint16_t parsePort(const std::string& text, bool dial);

/// Splits "host:port" at the last ':' into a non-empty host and a port to
/// dial (parsePort). Throws std::invalid_argument otherwise.
std::pair<std::string, std::uint16_t> parseEndpoint(const std::string& text);

}  // namespace mpcspan
