#include "util/args.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace mpcspan {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::flag(const std::string& name, const std::string& defaultValue,
                           const std::string& help) {
  if (specs_.emplace(name, Spec{defaultValue, help}).second) order_.push_back(name);
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      helpRequested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    bool haveValue = false;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      haveValue = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      error_ = "unknown flag: --" + arg;
      return false;
    }
    if (!haveValue) {
      // "--flag value" unless the next token is another flag (boolean form).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    values_[arg] = value;
  }
  return true;
}

bool ArgParser::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name) const {
  const auto v = values_.find(name);
  if (v != values_.end()) return v->second;
  const auto s = specs_.find(name);
  if (s == specs_.end()) throw std::invalid_argument("unregistered flag: " + name);
  return s->second.defaultValue;
}

namespace {

/// Parses all of `v` with a strtoll/strtod-shaped `parse`. A leading space,
/// a trailing character, an empty value or an out-of-range number throws
/// std::invalid_argument naming --name.
template <class Parse>
auto parseWhole(const std::string& name, const std::string& v,
                const char* want, Parse parse) {
  char* end = nullptr;
  errno = 0;
  const auto x = parse(v.c_str(), &end);
  if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
      *end != '\0' || errno == ERANGE)
    throw std::invalid_argument("--" + name + ": want " + want + ", got '" +
                                v + "'");
  return x;
}

}  // namespace

std::int64_t ArgParser::getInt(const std::string& name, std::int64_t lo,
                               std::int64_t hi) const {
  const std::string want = "an integer in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]";
  const std::string v = get(name);
  const std::int64_t x =
      parseWhole(name, v, want.c_str(), [](const char* s, char** end) {
        return std::strtoll(s, end, 10);
      });
  if (x < lo || x > hi)
    throw std::invalid_argument("--" + name + ": want " + want + ", got '" +
                                v + "'");
  return x;
}

double ArgParser::getDouble(const std::string& name) const {
  return parseWhole(name, get(name), "a number",
                    [](const char* s, char** end) {
                      return std::strtod(s, end);
                    });
}

bool ArgParser::getBool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + name +
                              ": want true/1/yes/on or false/0/no/off, got '" +
                              v + "'");
}

std::string ArgParser::usage() const {
  std::string out = program_ + " — " + description_ + "\n\nflags:\n";
  for (const std::string& name : order_) {
    const Spec& s = specs_.at(name);
    out += "  --" + name;
    if (!s.defaultValue.empty()) out += " (default: " + s.defaultValue + ")";
    out += "\n      " + s.help + "\n";
  }
  return out;
}

std::uint16_t parsePort(const std::string& text, bool dial) {
  const bool digits =
      !text.empty() && text.size() <= 5 &&
      text.find_first_not_of("0123456789") == std::string::npos;
  const long port = digits ? std::strtol(text.c_str(), nullptr, 10) : -1;
  if (port < (dial ? 1 : 0) || port > 65535)
    throw std::invalid_argument("bad port '" + text + "' (want " +
                                (dial ? "1" : "0") + "..65535)");
  return static_cast<std::uint16_t>(port);
}

std::pair<std::string, std::uint16_t> parseEndpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0)
    throw std::invalid_argument("want host:port, got '" + text + "'");
  return {text.substr(0, colon), parsePort(text.substr(colon + 1), /*dial=*/true)};
}

}  // namespace mpcspan
