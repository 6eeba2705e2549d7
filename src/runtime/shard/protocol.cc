#include "runtime/shard/protocol.hpp"

#include <poll.h>
#include <sched.h>

#include <stdexcept>

namespace mpcspan::runtime::shard {

void rethrow(std::uint8_t kind, const std::string& msg) {
  switch (kind) {
    case kCapacityKind:
      throw CapacityError(msg);
    case kBoundsKind:
      throw std::invalid_argument(msg);
    case kRangeKind:
      throw std::out_of_range(msg);
    default:
      throw std::runtime_error(msg);
  }
}

std::uint8_t classify(std::string& err) {
  try {
    throw;
  } catch (const CapacityError& e) {
    err = e.what();
    return kCapacityKind;
  } catch (const std::invalid_argument& e) {
    err = e.what();
    return kBoundsKind;
  } catch (const std::out_of_range& e) {
    err = e.what();
    return kRangeKind;
  } catch (const std::exception& e) {
    err = e.what();
    return kOtherKind;
  }
}

void spinAwaitReadable(int fd, const DeadlineBudget* budget) {
  constexpr int kBarrierSpins = 128;
  for (int i = 0; i < kBarrierSpins; ++i) {
    if (budget != nullptr && budget->expired()) return;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 0) > 0) return;
    ::sched_yield();
  }
}

void writeArgs(WireWriter& w, const std::vector<Word>& args) {
  w.u64(args.size());
  w.words(args.data(), args.size());
}

std::vector<Word> readArgs(WireReader& r) {
  const std::uint64_t argc = r.u64();
  if (argc > r.remaining() / sizeof(Word))
    throw ShardError("shard wire frame: corrupt arg count");
  std::vector<Word> args(argc);
  r.words(args.data(), argc);
  return args;
}

void writeReport(Channel& ch, std::uint8_t kind, const std::string& err,
                 std::uint64_t words) {
  WireWriter w;
  w.u8(kind);
  if (kind == kOk)
    w.u64(words);
  else
    w.str(err);
  w.sendFramed(ch);
}

Report readReport(Channel& ch) {
  WireReader r = WireReader::recvFramed(ch);
  Report rep;
  rep.kind = r.u8();
  if (rep.kind == kOk)
    rep.words = r.u64();
  else
    rep.err = r.str();
  return rep;
}

std::vector<std::vector<Ref>> indexByDst(
    const std::vector<std::vector<Message>>& projected, std::size_t lo,
    std::size_t hi) {
  std::vector<std::vector<Ref>> byDst(hi - lo);
  for (std::size_t src = 0; src < projected.size(); ++src) {
    const auto& outbox = projected[src];
    for (std::size_t pos = 0; pos < outbox.size(); ++pos) {
      const std::size_t d = outbox[pos].dst;
      if (d < lo || d >= hi) continue;
      byDst[d - lo].push_back(
          {static_cast<std::uint32_t>(src), static_cast<std::uint32_t>(pos)});
    }
  }
  return byDst;
}

}  // namespace mpcspan::runtime::shard
