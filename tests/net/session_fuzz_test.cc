// Seeded fuzzing of the session gate: the hello, the hello reply and the
// mux envelopes are the first bytes a daemon (or a client) parses from an
// untrusted peer. Valid messages must round-trip exactly; truncated,
// marker-flipped and length-forged ones must come back as a Status, never
// a crash or an out-of-bounds read (the ASan and TSan jobs run every net_
// suite); and a valid hello+mux stream cut at random points must reassemble
// into the same frames. Inputs come from a printed seed, so any failure is
// a one-line repro:
//
//   MAGICRECS_FUZZ_SEED=<seed> ./net_session_fuzz_test

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame_io.h"
#include "net/wire.h"
#include "util/random.h"

namespace magicrecs::net {
namespace {

uint64_t BaseSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 0x5e55'1011'2026ull;
}

/// Case budget, overridable for slow instrumented builds.
int Trials(int default_trials) {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_TRIALS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return default_trials;
}

uint32_t RandomU32(Rng* rng) {
  return static_cast<uint32_t>(rng->NextUint64());
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng->UniformInt(256));
  return bytes;
}

/// One request frame as a client would wrap it: a random request-range tag
/// (known or not) and an opaque payload, mostly short, sometimes large.
std::string RandomInnerFrame(Rng* rng) {
  const auto tag = static_cast<MessageTag>(rng->UniformInt(0x20));
  const size_t len = rng->Bernoulli(0.1) ? rng->UniformInt(4096)
                                         : rng->UniformInt(48);
  std::string frame;
  AppendFrame(tag, RandomBytes(rng, len), &frame);
  return frame;
}

/// Parses exactly one whole frame through the reactor's assembler.
Frame ParseOne(const std::string& bytes) {
  FrameAssembler assembler;
  assembler.Append(bytes.data(), bytes.size());
  Frame frame;
  bool ready = false;
  EXPECT_TRUE(assembler.Next(&frame, &ready).ok());
  EXPECT_TRUE(ready);
  EXPECT_EQ(assembler.buffered(), 0u);
  return frame;
}

/// Runs all four session decoders over `payload`. Their only contract on
/// hostile input is to return (the sanitizers check the reads).
void DecodeAll(const std::string& payload) {
  uint32_t version = 0, features = 0, max_inflight = 0;
  uint64_t id = 0;
  bool last = false;
  Frame inner;
  (void)DecodeHello(payload, &version, &features);
  (void)DecodeHelloReply(payload, &version, &features, &max_inflight);
  (void)DecodeMuxRequest(payload, &id, &inner);
  (void)DecodeMuxResponse(payload, &id, &last, &inner);
}

TEST(SessionFuzzTest, ValidMessagesRoundTripExactly) {
  const uint64_t seed = BaseSeed();
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  const int trials = Trials(2'000);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    const uint32_t features = RandomU32(&rng);
    std::string hello;
    AppendHello(features, &hello);
    Frame frame = ParseOne(hello);
    ASSERT_EQ(frame.tag, MessageTag::kHello);
    uint32_t version = 0, got_features = 0;
    ASSERT_TRUE(DecodeHello(frame.payload, &version, &got_features).ok());
    EXPECT_EQ(version, kProtocolVersion);
    EXPECT_EQ(got_features, features);

    const uint32_t max_inflight = RandomU32(&rng);
    std::string reply;
    AppendHelloReply(features, max_inflight, &reply);
    frame = ParseOne(reply);
    ASSERT_EQ(frame.tag, MessageTag::kHelloReply);
    uint32_t got_inflight = 0;
    ASSERT_TRUE(DecodeHelloReply(frame.payload, &version, &got_features,
                                 &got_inflight)
                    .ok());
    EXPECT_EQ(version, kProtocolVersion);
    EXPECT_EQ(got_features, features);
    EXPECT_EQ(got_inflight, max_inflight);

    const std::string inner = RandomInnerFrame(&rng);
    const Frame want = ParseOne(inner);
    const uint64_t id = rng.NextUint64();
    std::string request;
    AppendMuxRequest(id, inner, &request);
    frame = ParseOne(request);
    ASSERT_EQ(frame.tag, MessageTag::kMuxRequest);
    uint64_t got_id = 0;
    Frame got;
    ASSERT_TRUE(DecodeMuxRequest(frame.payload, &got_id, &got).ok());
    EXPECT_EQ(got_id, id);
    EXPECT_EQ(got.tag, want.tag);
    EXPECT_EQ(got.payload, want.payload);

    const bool last = rng.Bernoulli(0.5);
    std::string response;
    AppendMuxResponse(id, last, inner, &response);
    frame = ParseOne(response);
    ASSERT_EQ(frame.tag, MessageTag::kMuxResponse);
    bool got_last = !last;
    ASSERT_TRUE(
        DecodeMuxResponse(frame.payload, &got_id, &got_last, &got).ok());
    EXPECT_EQ(got_id, id);
    EXPECT_EQ(got_last, last);
    EXPECT_EQ(got.tag, want.tag);
    EXPECT_EQ(got.payload, want.payload);
    if (HasFatalFailure()) return;
  }
}

TEST(SessionFuzzTest, DamagedMessagesReturnAStatus) {
  const uint64_t seed = BaseSeed() ^ 0xda11a6ed;
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  const int trials = Trials(2'000);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    const std::string inner = RandomInnerFrame(&rng);
    const uint64_t id = rng.NextUint64();
    std::string hello, reply, request, response;
    AppendHello(RandomU32(&rng), &hello);
    AppendHelloReply(RandomU32(&rng), RandomU32(&rng), &reply);
    AppendMuxRequest(id, inner, &request);
    AppendMuxResponse(id, rng.Bernoulli(0.5), inner, &response);
    const std::string payloads[] = {
        ParseOne(hello).payload, ParseOne(reply).payload,
        ParseOne(request).payload, ParseOne(response).payload};

    uint32_t version = 0, features = 0, max_inflight = 0;
    uint64_t got_id = 0;
    bool last = false;
    Frame got;
    // Truncation: a cut inside the fixed fields is an error; past them
    // (the envelopes' opaque inner payload) the decode succeeds on the
    // prefix it was given.
    for (size_t i = 0; i < 4; ++i) {
      const std::string& payload = payloads[i];
      const size_t cut = rng.UniformInt(payload.size() + 1);
      const std::string prefix = payload.substr(0, cut);
      DecodeAll(prefix);
      switch (i) {
        case 0:
          EXPECT_EQ(DecodeHello(prefix, &version, &features).ok(), cut >= 9)
              << "hello cut at " << cut;
          break;
        case 1:
          EXPECT_EQ(
              DecodeHelloReply(prefix, &version, &features, &max_inflight)
                  .ok(),
              cut >= 12)
              << "hello-reply cut at " << cut;
          break;
        case 2: {
          const Status s = DecodeMuxRequest(prefix, &got_id, &got);
          EXPECT_EQ(s.ok(), cut >= 9) << "mux-request cut at " << cut;
          if (s.ok()) {
            EXPECT_EQ(got.payload, prefix.substr(9));
          }
          break;
        }
        case 3: {
          const Status s = DecodeMuxResponse(prefix, &got_id, &last, &got);
          EXPECT_EQ(s.ok(), cut >= 10) << "mux-response cut at " << cut;
          if (s.ok()) {
            EXPECT_EQ(got.payload, prefix.substr(10));
          }
          break;
        }
      }
    }

    // A flipped hello marker is never a hello.
    std::string bad_hello = payloads[0];
    bad_hello[0] = static_cast<char>(0x02 + rng.UniformInt(0xfe));
    EXPECT_TRUE(
        DecodeHello(bad_hello, &version, &features).IsInvalidArgument());

    // Pure garbage of any length, through every decoder.
    DecodeAll(RandomBytes(&rng, rng.UniformInt(32)));

    // Forged lengths and flipped bytes at the frame level: one damaged
    // byte anywhere in an envelope (its length prefix included) must
    // never yield a frame — the assembler reports an error or keeps
    // waiting for bytes that will not come.
    const std::string* wires[] = {&hello, &reply, &request, &response};
    std::string damaged = *wires[rng.UniformInt(4)];
    const bool forge_length = rng.Bernoulli(0.3);
    if (forge_length) {
      const uint32_t forged = RandomU32(&rng) >> rng.UniformInt(32);
      uint32_t body_len = 0;
      std::memcpy(&body_len, damaged.data(), sizeof(body_len));
      if (forged != body_len) {
        std::memcpy(damaged.data(), &forged, sizeof(forged));
      } else {
        damaged[0] ^= 0x01;
      }
    } else {
      const size_t at = rng.UniformInt(damaged.size());
      damaged[at] ^= static_cast<char>(1 + rng.UniformInt(255));
    }
    FrameAssembler assembler;
    assembler.Append(damaged.data(), damaged.size());
    Frame frame;
    bool ready = false;
    const Status next = assembler.Next(&frame, &ready);
    EXPECT_FALSE(next.ok() && ready)
        << (forge_length ? "forged length" : "flipped byte")
        << " produced a frame";
    if (next.ok() && ready) DecodeAll(frame.payload);
    if (HasFatalFailure()) return;
  }
}

TEST(SessionFuzzTest, SplitSessionStreamReassemblesIdentically) {
  const uint64_t seed = BaseSeed() ^ 0x5b1175;
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  const int trials = Trials(2'000) / 10 + 1;
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    // A session as a server reads it: the hello, then mux requests.
    std::string stream;
    AppendHello(kFeatureMux | kFeatureTrace, &stream);
    std::vector<Frame> want = {ParseOne(stream)};
    const size_t requests = 1 + rng.UniformInt(24);
    for (size_t i = 0; i < requests; ++i) {
      std::string envelope;
      AppendMuxRequest(rng.NextUint64(), RandomInnerFrame(&rng), &envelope);
      want.push_back(ParseOne(envelope));
      stream += envelope;
    }

    FrameAssembler assembler;
    std::vector<Frame> got;
    size_t offset = 0;
    while (offset < stream.size()) {
      const size_t max_chunk = rng.Bernoulli(0.5) ? 8 : 4096;
      const size_t n =
          std::min(stream.size() - offset, 1 + rng.UniformInt(max_chunk));
      assembler.Append(stream.data() + offset, n);
      offset += n;
      while (true) {
        Frame frame;
        bool ready = false;
        ASSERT_TRUE(assembler.Next(&frame, &ready).ok());
        if (!ready) break;
        got.push_back(std::move(frame));
      }
    }
    EXPECT_FALSE(assembler.mid_frame());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].tag, want[i].tag) << "frame " << i;
      EXPECT_EQ(got[i].payload, want[i].payload) << "frame " << i;
    }
    // The reassembled envelopes still decode to their requests.
    for (size_t i = 1; i < got.size(); ++i) {
      uint64_t id = 0;
      Frame inner;
      EXPECT_TRUE(DecodeMuxRequest(got[i].payload, &id, &inner).ok());
    }
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace magicrecs::net
