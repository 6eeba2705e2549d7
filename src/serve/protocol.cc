#include "serve/protocol.hpp"

#include "runtime/shard/wire.hpp"

namespace mpcspan::serve {

using runtime::shard::ShardError;

void encodeHelloInfo(WireWriter& w, const HelloInfo& h) {
  w.u64(h.snapshotVersion);
  w.u64(h.numVertices);
  putF64(w, h.composedStretch);
}

HelloInfo decodeHelloInfo(WireReader& r) {
  HelloInfo h;
  h.snapshotVersion = r.u64();
  h.numVertices = r.u64();
  h.composedStretch = getF64(r);
  return h;
}

void encodeAnswer(WireWriter& w, const WireAnswer& a) {
  putF64(w, a.dist);
  w.u64(static_cast<std::uint64_t>(a.tier));
  w.u8(a.degraded ? 1 : 0);
  putF64(w, a.stretch);
  w.u64(a.snapshotVersion);
}

WireAnswer decodeAnswer(WireReader& r) {
  WireAnswer a;
  a.dist = getF64(r);
  a.tier = static_cast<std::int64_t>(r.u64());
  a.degraded = r.u8() != 0;
  a.stretch = getF64(r);
  a.snapshotVersion = r.u64();
  return a;
}

void encodeStats(WireWriter& w, const ServeStats& s) {
  w.u64(s.snapshotVersion);
  w.u64(s.numVertices);
  w.u64(s.accepted);
  w.u64(s.activeSessions);
  w.u64(s.queries);
  w.u64(s.degraded);
  w.u64(s.shedQueueFull);
  w.u64(s.slowClientDrops);
  w.u64(s.malformedFrames);
  w.u64(s.reloadsOk);
  w.u64(s.reloadsFailed);
  w.u64(s.tiers.size());
  for (const query::TierStats& t : s.tiers) {
    w.str(t.name);
    w.u64(t.attempts);
    w.u64(t.hits);
    w.u64(t.nanos);
  }
}

ServeStats decodeStats(WireReader& r) {
  ServeStats s;
  s.snapshotVersion = r.u64();
  s.numVertices = r.u64();
  s.accepted = r.u64();
  s.activeSessions = r.u64();
  s.queries = r.u64();
  s.degraded = r.u64();
  s.shedQueueFull = r.u64();
  s.slowClientDrops = r.u64();
  s.malformedFrames = r.u64();
  s.reloadsOk = r.u64();
  s.reloadsFailed = r.u64();
  const std::uint64_t count = r.u64();
  // A tier row is at least 4 u64-sized fields; vet before sizing.
  if (count > r.remaining() / (4 * sizeof(std::uint64_t)) + 1)
    throw ShardError("serve stats frame: implausible tier count");
  s.tiers.resize(count);
  for (query::TierStats& t : s.tiers) {
    t.name = r.str();
    t.attempts = r.u64();
    t.hits = r.u64();
    t.nanos = r.u64();
  }
  return s;
}

}  // namespace mpcspan::serve
