#include "runtime/shard/protocol.hpp"

#include <poll.h>
#include <sched.h>

#include <stdexcept>

namespace mpcspan::runtime::shard {

std::size_t failedReport(const std::vector<Report>& reports) {
  const auto rank = [](std::uint8_t k) -> std::size_t {
    return k == kOk ? 3 : k == kCapacityKind ? 2 : k == kBoundsKind ? 1 : 0;
  };
  std::size_t pick = reports.size();
  for (std::size_t s = 0, best = 3; s < reports.size(); ++s)
    if (rank(reports[s].kind) < best) {
      best = rank(reports[s].kind);
      pick = s;
    }
  return pick;
}

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

void writeInboxes(WireWriter& w, const std::vector<WordRows>& inboxes) {
  for (const WordRows& inbox : inboxes) {
    w.u64(inbox.size());
    for (const RowView row : inbox) {
      w.u64(row.peer);
      w.u64(row.words.size());
      w.words(row.words.data(), row.words.size());
    }
  }
}

std::vector<WordRows> readInboxes(WireReader& r, std::size_t machines,
                                  std::size_t numMachines) {
  std::vector<WordRows> inboxes(machines);
  for (WordRows& inbox : inboxes) {
    const std::uint64_t count = r.u64();
    // A row is at least two u64s.
    if (count > r.remaining() / (2 * sizeof(std::uint64_t)))
      throw ShardError("shard wire frame: corrupt row count");
    inbox.reserve(count, 0);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t src = r.u64();
      const std::uint64_t len = r.u64();
      if (src >= numMachines)
        throw ShardError("shard wire frame: row source out of range");
      if (len > r.remaining() / sizeof(Word))
        throw ShardError("shard wire frame: corrupt payload length");
      r.words(inbox.append(src, len), len);
    }
  }
  if (!r.atEnd()) throw ShardError("shard wire frame: trailing bytes");
  return inboxes;
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

}  // namespace mpcspan::runtime::shard
