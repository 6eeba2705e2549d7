#include "serve/protocol.hpp"

#include "runtime/shard/wire.hpp"

namespace mpcspan::serve {

using runtime::shard::ShardError;

namespace {

/// A decoder's last step: the body must end where its encoder stopped.
void expectEnd(const WireReader& r) {
  if (!r.atEnd()) throw ShardError("serve frame: trailing bytes");
}

}  // namespace

void encodeHelloRequest(WireWriter& w, const HelloRequest& h) {
  w.u64(h.magic);
  w.u8(h.version);
}

HelloRequest decodeHelloRequest(WireReader& r) {
  HelloRequest h;
  h.magic = r.u64();
  h.version = r.u8();
  expectEnd(r);
  return h;
}

void encodeQuery(WireWriter& w, const QueryRequest& q) {
  w.u64(q.u);
  w.u64(q.v);
  w.u64(q.deadlineMs);
}

QueryRequest decodeQuery(WireReader& r) {
  QueryRequest q;
  q.u = r.u64();
  q.v = r.u64();
  q.deadlineMs = r.u64();
  expectEnd(r);
  return q;
}

void encodeText(WireWriter& w, const std::string& s) { w.str(s); }

std::string decodeText(WireReader& r) {
  std::string s = r.str();
  expectEnd(r);
  return s;
}

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
  expectEnd(r);
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
  const std::uint8_t degraded = r.u8();
  if (degraded > 1) throw ShardError("serve answer frame: bad degraded flag");
  a.degraded = degraded == 1;
  a.stretch = getF64(r);
  a.snapshotVersion = r.u64();
  expectEnd(r);
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
  expectEnd(r);
  return s;
}

}  // namespace mpcspan::serve
