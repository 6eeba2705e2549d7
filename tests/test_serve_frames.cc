// Serve frames under mutation: the buffered frame reader (serve/net.hpp)
// against every truncation point, byte-at-a-time and seeded random splits
// across sends, two frames in one send, implausible lengths (rejected
// before the buffer grows), and reply bytes left over from a dropped
// connection; then the body decoders (serve/protocol.hpp) against seeded
// bit flips, truncations and splices of hello, query, answer, stats, error
// and shed bodies. Every mutant must either re-encode to the same bytes or
// be rejected with ShardError (or, at the framing layer, kMalformed/kEof):
// no crash, no hang, no over-cap allocation. Runs in the ASan/UBSan leg.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "runtime/shard/wire.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace mpcspan {
namespace {

using runtime::shard::ShardError;
using serve::IoStatus;
using serve::RecvBuffer;
using serve::WireReader;
using serve::WireWriter;

using Bytes = std::vector<std::uint8_t>;

const serve::IoPacing kPacing{};

Bytes bytesOf(const WireWriter& w) { return Bytes(w.data(), w.data() + w.size()); }

/// `u64 length + body`, as writeFrame puts it on the wire.
Bytes framed(const Bytes& body) {
  const std::uint64_t len = body.size();
  Bytes out(sizeof(len));
  std::memcpy(out.data(), &len, sizeof(len));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void sendAll(int fd, const Bytes& bytes) {
  ASSERT_EQ(util::writeBytes(fd, bytes.data(), bytes.size(),
                             util::DeadlineBudget(5000), kPacing),
            IoStatus::kOk);
}

/// Reads one frame with a 5 s idle and frame budget.
IoStatus readOne(int fd, RecvBuffer& in, Bytes& body, int frameMs = 5000) {
  std::span<const std::uint8_t> view;
  const IoStatus st = serve::readFrame(fd, in, view, serve::kMaxServeFrameBytes,
                                       util::DeadlineBudget(5000), frameMs,
                                       kPacing);
  if (st == IoStatus::kOk) body.assign(view.begin(), view.end());
  return st;
}

struct Pair {
  util::WireFd reader, writer;
  Pair() { runtime::shard::makeSocketPair(reader, writer); }
};

// One valid body of every kind a serve peer decodes.
std::vector<Bytes> sampleBodies() {
  std::vector<Bytes> out;
  {
    WireWriter w;
    w.u8(serve::kOpHello);
    serve::encodeHelloRequest(w, {});
    out.push_back(bytesOf(w));
  }
  {
    WireWriter w;
    w.u8(serve::kOpQuery);
    serve::encodeQuery(w, {3, 99, 2});
    out.push_back(bytesOf(w));
  }
  {
    WireWriter w;
    w.u8(serve::kReHello);
    serve::encodeHelloInfo(w, {4, 20000, 18.5});
    out.push_back(bytesOf(w));
  }
  for (const bool degraded : {false, true}) {
    WireWriter w;
    w.u8(serve::kReAnswer);
    serve::encodeAnswer(w, {41.25, degraded ? 0 : 1, degraded, 3.5, 4});
    out.push_back(bytesOf(w));
  }
  {
    serve::ServeStats s;
    s.snapshotVersion = 2;
    s.numVertices = 20000;
    s.queries = 123456;
    s.degraded = 77;
    s.tiers = {{"sketch", 10, 9, 1000}, {"exact", 5, 5, 50000}};
    WireWriter w;
    w.u8(serve::kReStats);
    serve::encodeStats(w, s);
    out.push_back(bytesOf(w));
  }
  {
    WireWriter w;
    w.u8(serve::kReError);
    serve::encodeText(w, "vertex id out of range [0, 20000)");
    out.push_back(bytesOf(w));
  }
  {
    WireWriter w;
    w.u8(serve::kReShed);
    serve::encodeText(w, "server overloaded");
    out.push_back(bytesOf(w));
  }
  return out;
}

/// Decodes a body by its opcode and encodes the result again. Throws
/// ShardError for anything the decoders reject (or an unknown opcode).
Bytes reencode(std::span<const std::uint8_t> body) {
  WireReader r = WireReader::view(body);
  WireWriter w;
  const std::uint8_t op = r.u8();
  w.u8(op);
  switch (op) {
    case serve::kOpHello:
      serve::encodeHelloRequest(w, serve::decodeHelloRequest(r));
      break;
    case serve::kOpQuery:
      serve::encodeQuery(w, serve::decodeQuery(r));
      break;
    case serve::kReHello:
      serve::encodeHelloInfo(w, serve::decodeHelloInfo(r));
      break;
    case serve::kReAnswer:
      serve::encodeAnswer(w, serve::decodeAnswer(r));
      break;
    case serve::kReStats:
      serve::encodeStats(w, serve::decodeStats(r));
      break;
    case serve::kReError:
    case serve::kReShed:
      serve::encodeText(w, serve::decodeText(r));
      break;
    default:
      throw ShardError("unknown opcode");
  }
  return bytesOf(w);
}

// --- The buffered reader ------------------------------------------------

TEST(ServeFrameReader, EveryTruncationPointEndsInEofNotAFrame) {
  const Bytes frame = framed(sampleBodies().at(1));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    Pair p;
    sendAll(p.writer.fd(), Bytes(frame.begin(), frame.begin() + cut));
    ASSERT_EQ(::shutdown(p.writer.fd(), SHUT_WR), 0);
    RecvBuffer in;
    Bytes body;
    EXPECT_EQ(readOne(p.reader.fd(), in, body), IoStatus::kEof) << "cut " << cut;
  }
  Pair p;
  sendAll(p.writer.fd(), frame);
  RecvBuffer in;
  Bytes body;
  ASSERT_EQ(readOne(p.reader.fd(), in, body), IoStatus::kOk);
  EXPECT_EQ(body, sampleBodies().at(1));
}

TEST(ServeFrameReader, StalledHalfFrameTimesOutOnTheFrameBudget) {
  // The idle budget (5 s) covers only the wait for the first byte; once
  // part of a frame is in, the 50 ms frame budget is what runs out.
  const Bytes frame = framed(sampleBodies().at(1));
  for (const std::size_t cut : {std::size_t{1}, std::size_t{8}, frame.size() - 1}) {
    Pair p;
    sendAll(p.writer.fd(), Bytes(frame.begin(), frame.begin() + cut));
    RecvBuffer in;
    Bytes body;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(readOne(p.reader.fd(), in, body, 50), IoStatus::kTimeout);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  }
}

TEST(ServeFrameReader, FrameDribbledOneBytePerSendParses) {
  const std::vector<Bytes> bodies = sampleBodies();
  Bytes stream;
  for (const Bytes& b : bodies) {
    const Bytes f = framed(b);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  Pair p;
  std::thread writer([&] {
    for (const std::uint8_t byte : stream) {
      sendAll(p.writer.fd(), Bytes{byte});
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  RecvBuffer in;
  std::vector<Bytes> got;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    Bytes body;
    if (readOne(p.reader.fd(), in, body) != IoStatus::kOk) break;
    got.push_back(std::move(body));
  }
  writer.join();
  EXPECT_EQ(got, bodies);
  EXPECT_EQ(in.pending(), 0u);
}

TEST(ServeFrameReader, TwoFramesInOneSendBothParse) {
  const Bytes a = sampleBodies().at(1);
  const Bytes b = sampleBodies().at(5);
  Bytes both = framed(a);
  const Bytes fb = framed(b);
  both.insert(both.end(), fb.begin(), fb.end());
  Pair p;
  sendAll(p.writer.fd(), both);
  RecvBuffer in;
  Bytes body;
  ASSERT_EQ(readOne(p.reader.fd(), in, body), IoStatus::kOk);
  EXPECT_EQ(body, a);
  // The second frame came in with the first: it is already buffered, so
  // it parses without waiting on the socket at all (an idle budget of 0).
  EXPECT_EQ(in.pending(), fb.size());
  std::span<const std::uint8_t> view;
  ASSERT_EQ(serve::readFrame(p.reader.fd(), in, view, serve::kMaxServeFrameBytes,
                             util::DeadlineBudget(0), 5000, kPacing),
            IoStatus::kOk);
  EXPECT_EQ(Bytes(view.begin(), view.end()), b);
  EXPECT_EQ(in.pending(), 0u);
}

TEST(ServeFrameReader, ImplausibleLengthsRejectedBeforeTheBufferGrows) {
  for (const std::uint64_t len : {std::uint64_t{0}, serve::kMaxServeFrameBytes + 1,
                                  ~std::uint64_t{0}}) {
    Pair p;
    Bytes hdr(sizeof(len));
    std::memcpy(hdr.data(), &len, sizeof(len));
    sendAll(p.writer.fd(), hdr);
    RecvBuffer in;
    Bytes body;
    EXPECT_EQ(readOne(p.reader.fd(), in, body), IoStatus::kMalformed) << len;
    EXPECT_EQ(in.capacity(), RecvBuffer::kInitialBytes) << len;
  }
  // A large legitimate frame grows the buffer to exactly what it needs.
  const Bytes big(100000, 0x5a);
  Pair p;
  std::thread writer([&] { sendAll(p.writer.fd(), framed(big)); });
  RecvBuffer in;
  Bytes body;
  const IoStatus st = readOne(p.reader.fd(), in, body);
  writer.join();
  ASSERT_EQ(st, IoStatus::kOk);
  EXPECT_EQ(body, big);
  EXPECT_EQ(in.capacity(), sizeof(std::uint64_t) + big.size());
}

TEST(ServeFrameReader, SeededSplitsAcrossSendsParseEveryFrame) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<Bytes> bodies;
    Bytes stream;
    for (int i = 0; i < 40; ++i) {
      // Mostly small frames, some past the initial buffer size.
      const std::size_t n = 1 + rng.next(rng.next(4) == 0 ? 9000 : 64);
      Bytes b(n);
      for (std::uint8_t& x : b) x = static_cast<std::uint8_t>(rng.next(256));
      const Bytes f = framed(b);
      stream.insert(stream.end(), f.begin(), f.end());
      bodies.push_back(std::move(b));
    }
    Pair p;
    std::thread writer([&] {
      Rng split(seed * 977);
      for (std::size_t at = 0; at < stream.size();) {
        const std::size_t n =
            std::min<std::size_t>(stream.size() - at, 1 + split.next(700));
        sendAll(p.writer.fd(), Bytes(stream.begin() + at, stream.begin() + at + n));
        at += n;
        if (split.next(4) == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    RecvBuffer in;
    std::vector<Bytes> got;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      Bytes body;
      if (readOne(p.reader.fd(), in, body) != IoStatus::kOk) break;
      got.push_back(std::move(body));
    }
    writer.join();
    EXPECT_EQ(got, bodies) << "seed " << seed;
    EXPECT_EQ(in.pending(), 0u);
  }
}

TEST(ServeFrameReader, StaleReplyByteAfterCloseDoesNotLeakIntoNextRequest) {
  // A scripted server: each connection gets a hello reply and answers one
  // query; the first connection's answer carries one stray byte after the
  // frame, which lands in the client's receive buffer with the answer.
  std::string err;
  std::uint16_t port = 0;
  util::WireFd listener = util::listenTcp("127.0.0.1", 0, 4, &port, err);
  ASSERT_TRUE(listener.valid()) << err;
  std::thread server([&] {
    for (int conn = 0; conn < 2; ++conn) {
      ASSERT_EQ(util::awaitFd(listener.fd(), POLLIN, util::DeadlineBudget(5000),
                              kPacing),
                IoStatus::kOk);
      util::WireFd c = util::acceptOn(listener.fd());
      ASSERT_TRUE(c.valid());
      RecvBuffer in;
      Bytes req;
      ASSERT_EQ(readOne(c.fd(), in, req), IoStatus::kOk);  // hello
      WireWriter hello;
      hello.u8(serve::kReHello);
      serve::encodeHelloInfo(hello, {1, 10, 1.0});
      sendAll(c.fd(), framed(bytesOf(hello)));
      ASSERT_EQ(readOne(c.fd(), in, req), IoStatus::kOk);  // query
      WireWriter ans;
      ans.u8(serve::kReAnswer);
      serve::encodeAnswer(ans, {conn == 0 ? 1.0 : 2.0, 1, false, 1.0, 1});
      Bytes reply = framed(bytesOf(ans));
      if (conn == 0) reply.push_back(0xab);  // stale: belongs to no frame
      sendAll(c.fd(), reply);
      Bytes rest;  // the client closes (EOF, or a reset)
      EXPECT_NE(readOne(c.fd(), in, rest), IoStatus::kOk);
    }
  });
  serve::ClientOptions opts;
  opts.port = port;
  opts.maxRetries = 0;
  serve::ServeClient client(opts);
  double first = 0, second = 0;
  try {
    first = client.query(0, 1).dist;
    client.close();
    // Redialed: the stale byte went with the old connection.
    second = client.query(0, 1).dist;
  } catch (const serve::ServeError& e) {
    ADD_FAILURE() << e.what();
  }
  client.close();
  server.join();
  EXPECT_EQ(first, 1.0);
  EXPECT_EQ(second, 2.0);
}

// --- The body decoders ----------------------------------------------------

TEST(ServeFrameMutation, ValidBodiesReencodeByteIdentically) {
  for (const Bytes& b : sampleBodies()) EXPECT_EQ(reencode(b), b);
}

TEST(ServeFrameMutation, BitFlipsTruncationsAndSplicesReencodeOrReject) {
  const std::vector<Bytes> bodies = sampleBodies();
  Rng rng(20261018);
  std::size_t kept = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const Bytes& a = bodies[rng.next(bodies.size())];
    Bytes m;
    switch (rng.next(3)) {
      case 0: {  // flip 1-3 bits
        m = a;
        const std::uint64_t flips = 1 + rng.next(3);
        for (std::uint64_t f = 0; f < flips; ++f)
          m[rng.next(m.size())] ^= static_cast<std::uint8_t>(1u << rng.next(8));
        break;
      }
      case 1:  // truncate
        m.assign(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(
                                            1 + rng.next(a.size())));
        break;
      default: {  // splice a's head onto another body's tail
        const Bytes& b = bodies[rng.next(bodies.size())];
        const std::size_t cutA = 1 + rng.next(a.size());
        const std::size_t cutB = rng.next(b.size() + 1);
        m.assign(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(cutA));
        m.insert(m.end(), b.begin() + static_cast<std::ptrdiff_t>(cutB), b.end());
        break;
      }
    }
    try {
      ASSERT_EQ(reencode(m), m) << "mutant " << i;
      ++kept;
    } catch (const ShardError&) {
      ++rejected;
    }
  }
  // Both outcomes occur: flipped payload bits re-encode, broken shapes throw.
  EXPECT_GT(kept, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST(ServeFrameMutation, MutatedStreamsParseOrRejectCleanly) {
  // Whole frames, length prefixes included, flipped and fed to the reader:
  // each frame it returns decodes cleanly or throws ShardError, and the
  // stream ends in kEof or kMalformed, never a hang or a crash.
  const std::vector<Bytes> bodies = sampleBodies();
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    Bytes stream;
    for (int f = 0; f < 3; ++f) {
      const Bytes fr = framed(bodies[rng.next(bodies.size())]);
      stream.insert(stream.end(), fr.begin(), fr.end());
    }
    const std::uint64_t flips = 1 + rng.next(3);
    for (std::uint64_t f = 0; f < flips; ++f)
      stream[rng.next(stream.size())] ^= static_cast<std::uint8_t>(1u << rng.next(8));
    Pair p;
    sendAll(p.writer.fd(), stream);
    ASSERT_EQ(::shutdown(p.writer.fd(), SHUT_WR), 0);
    RecvBuffer in;
    IoStatus st;
    for (;;) {
      Bytes body;
      st = readOne(p.reader.fd(), in, body);
      if (st != IoStatus::kOk) break;
      try {
        EXPECT_EQ(reencode(body), body) << "stream " << i;
      } catch (const ShardError&) {
      }
    }
    EXPECT_TRUE(st == IoStatus::kEof || st == IoStatus::kMalformed)
        << "stream " << i << ": " << serve::ioStatusName(st);
  }
}

}  // namespace
}  // namespace mpcspan
