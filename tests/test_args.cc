#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace mpcspan {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

ArgParser makeParser() {
  ArgParser p("tool", "test tool");
  p.flag("name", "default", "a string")
      .flag("count", "7", "an int")
      .flag("ratio", "0.5", "a double")
      .flag("on", "false", "a bool");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tool");
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, DefaultsApplyWhenUnset) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_EQ(p.getInt("count", kMin, kMax), 7);
  EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.5);
  EXPECT_FALSE(p.getBool("on"));
  EXPECT_FALSE(p.has("name"));
}

TEST(Args, EqualsForm) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--name=alice", "--count=42"}));
  EXPECT_EQ(p.get("name"), "alice");
  EXPECT_EQ(p.getInt("count", kMin, kMax), 42);
  EXPECT_TRUE(p.has("name"));
}

TEST(Args, SpaceForm) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--name", "bob", "--ratio", "2.25"}));
  EXPECT_EQ(p.get("name"), "bob");
  EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 2.25);
}

TEST(Args, BooleanShortForm) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--on", "--name=x"}));
  EXPECT_TRUE(p.getBool("on"));
  EXPECT_EQ(p.get("name"), "x");
}

TEST(Args, BoolAcceptsSeveralSpellings) {
  for (const char* v : {"true", "1", "yes", "on"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--on", v}));
    EXPECT_TRUE(p.getBool("on")) << v;
  }
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--on", "false"}));
  EXPECT_FALSE(p.getBool("on"));
}

/// The std::invalid_argument message `fn` throws ("" if it throws none).
template <class Fn>
std::string invalidArgumentOf(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Args, NumbersMustParseWhole) {
  // A prefix that parses is not enough: `--n 300x` must not read as 300.
  for (const char* bad : {"300x", "abc", "", " 3", "4.5", "0x10",
                          "99999999999999999999"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--count", bad}));
    EXPECT_NE(invalidArgumentOf([&] { p.getInt("count", kMin, kMax); }).find("--count"),
              std::string::npos)
        << "'" << bad << "'";
  }
  for (const char* bad : {"0.5x", "abc", "", " 1", "1e999"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--ratio", bad}));
    EXPECT_NE(invalidArgumentOf([&] { p.getDouble("ratio"); }).find("--ratio"),
              std::string::npos)
        << "'" << bad << "'";
  }
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--count", "-12", "--ratio", "1e3"}));
  EXPECT_EQ(p.getInt("count", kMin, kMax), -12);
  EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 1000.0);
}

TEST(Args, IntegersMustLieInTheirRange) {
  // Both ends are inclusive; a value past either names the flag and the
  // range, as the tools' counts, ids and timeouts rely on.
  for (const char* ok : {"0", "7", "4294967295"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--count", ok}));
    EXPECT_EQ(p.getInt("count", 0, 4294967295), std::stoll(ok));
  }
  for (const char* bad : {"-1", "4294967296", "-9223372036854775808"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--count", bad}));
    const std::string err =
        invalidArgumentOf([&] { p.getInt("count", 0, 4294967295); });
    EXPECT_NE(err.find("--count"), std::string::npos) << bad;
    EXPECT_NE(err.find("[0, 4294967295]"), std::string::npos) << err;
  }
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--count", "-1"}));
  EXPECT_EQ(p.getInt("count", -1, 1), -1);
  EXPECT_NE(invalidArgumentOf([&] { p.getInt("count", 1, 1024); }), "");
}

TEST(Args, BoolRejectsOtherSpellings) {
  for (const char* v : {"false", "0", "no", "off"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--on", v}));
    EXPECT_FALSE(p.getBool("on")) << v;
  }
  for (const char* bad : {"maybe", "TRUE", "2", "", "yes "}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--on", bad}));
    EXPECT_NE(invalidArgumentOf([&] { p.getBool("on"); }).find("--on"),
              std::string::npos)
        << "'" << bad << "'";
  }
}

TEST(Args, UnknownFlagRejected) {
  ArgParser p = makeParser();
  EXPECT_FALSE(parse(p, {"--bogus=1"}));
  EXPECT_NE(p.error().find("bogus"), std::string::npos);
}

TEST(Args, PositionalRejected) {
  ArgParser p = makeParser();
  EXPECT_FALSE(parse(p, {"stray"}));
}

TEST(Args, HelpRequested) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--help"}));
  EXPECT_TRUE(p.helpRequested());
  const std::string u = p.usage();
  EXPECT_NE(u.find("--count"), std::string::npos);
  EXPECT_NE(u.find("an int"), std::string::npos);
}

TEST(Args, UnregisteredGetThrows) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get("nope"), std::invalid_argument);
}

TEST(Args, PortRangeDependsOnListenOrDial) {
  EXPECT_EQ(parsePort("0", /*dial=*/false), 0);
  EXPECT_EQ(parsePort("65535", /*dial=*/false), 65535);
  EXPECT_EQ(parsePort("7021", /*dial=*/true), 7021);
  EXPECT_EQ(parsePort("1", /*dial=*/true), 1);
  EXPECT_THROW(parsePort("0", /*dial=*/true), std::invalid_argument);
}

TEST(Args, PortRejectsOutOfRangeAndJunk) {
  // A narrowing cast would turn 70000 into 4464 and -1 into 65535.
  for (const char* bad : {"70000", "65536", "-1", "+5", "", " 80", "80x", "0x50",
                          "123456", "99999999999999999999"})
    for (const bool dial : {false, true})
      EXPECT_THROW(parsePort(bad, dial), std::invalid_argument) << bad;
}

TEST(Args, EndpointSplitsAtTheLastColon) {
  const auto [host, port] = parseEndpoint("127.0.0.1:7021");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7021);
  EXPECT_EQ(parseEndpoint("::1:80").first, "::1");
  for (const char* bad : {"127.0.0.1", ":7021", "host:", "host:0",
                          "127.0.0.1:70000", "127.0.0.1:-1"})
    EXPECT_THROW(parseEndpoint(bad), std::invalid_argument) << bad;
}

}  // namespace
}  // namespace mpcspan
