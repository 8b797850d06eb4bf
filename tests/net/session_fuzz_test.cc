// Seeded fuzzing of the session gate and the reply bodies a broker parses:
// the hello, the hello reply and the mux envelopes are the first bytes a
// daemon (or a client) parses from an untrusted peer, and the
// recommendations and stats replies are what a broker decodes from every
// daemon. Valid messages must round-trip exactly; truncated,
// marker-flipped, count-forged and length-forged ones must come back as a
// Status, never a crash, an out-of-bounds read or an allocation the payload
// cannot back (the ASan and TSan jobs run every net_ suite); and a valid
// hello+mux stream cut at random points must reassemble into the same
// frames. Inputs come from a printed seed, so any failure is a one-line
// repro:
//
//   MAGICRECS_FUZZ_SEED=<seed> MAGICRECS_FUZZ_TRIALS=<n> ./net_session_fuzz_test

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame_io.h"
#include "net/wire.h"
#include "persist/codec.h"
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

/// Parses a buffer of whole frames (e.g. a chunked reply) through the
/// reactor's assembler.
std::vector<Frame> ParseAll(const std::string& bytes) {
  FrameAssembler assembler;
  assembler.Append(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  while (true) {
    Frame frame;
    bool ready = false;
    EXPECT_TRUE(assembler.Next(&frame, &ready).ok());
    if (!ready) break;
    frames.push_back(std::move(frame));
  }
  EXPECT_EQ(assembler.buffered(), 0u);
  return frames;
}

/// Runs every session and reply decoder over `payload`. Their only contract
/// on hostile input is to return (the sanitizers check the reads).
void DecodeAll(const std::string& payload) {
  uint32_t version = 0, features = 0, max_inflight = 0;
  uint64_t id = 0;
  bool last = false;
  Frame inner;
  std::vector<Recommendation> recs;
  ClusterStats stats;
  (void)DecodeHello(payload, &version, &features);
  (void)DecodeHelloReply(payload, &version, &features, &max_inflight);
  (void)DecodeMuxRequest(payload, &id, &inner);
  (void)DecodeMuxResponse(payload, &id, &last, &inner);
  (void)DecodeRecommendationsReply(payload, &recs, &last);
  (void)DecodeStatsReply(payload, &stats);
}

Recommendation RandomRecommendation(Rng* rng) {
  Recommendation rec;
  rec.user = RandomU32(rng);
  rec.item = RandomU32(rng);
  rec.witness_count = RandomU32(rng);
  rec.trigger = RandomU32(rng);
  rec.event_time = static_cast<Timestamp>(rng->NextUint64());
  rec.witnesses.resize(rng->UniformInt(7));
  for (VertexId& witness : rec.witnesses) witness = RandomU32(rng);
  return rec;
}

std::vector<Recommendation> RandomRecommendations(Rng* rng, size_t max) {
  std::vector<Recommendation> recs(rng->UniformInt(max + 1));
  for (Recommendation& rec : recs) rec = RandomRecommendation(rng);
  return recs;
}

/// Every field the stats wire carries, randomized; the broker-only
/// counters stay zero because the wire does not carry them.
ClusterStats RandomStats(Rng* rng) {
  ClusterStats stats;
  stats.num_partitions = RandomU32(rng);
  stats.replicas_per_partition = RandomU32(rng);
  stats.events_published = rng->NextUint64();
  stats.detector_events = rng->NextUint64();
  stats.threshold_queries = rng->NextUint64();
  stats.recommendations = rng->NextUint64();
  stats.static_memory_bytes = rng->NextUint64();
  stats.dynamic_memory_bytes = rng->NextUint64();
  stats.per_replica.resize(rng->UniformInt(6));
  for (ReplicaStats& entry : stats.per_replica) {
    entry.partition = RandomU32(rng);
    entry.replica = RandomU32(rng);
    entry.alive = rng->Bernoulli(0.5);
    entry.detector_events = rng->NextUint64();
    entry.threshold_queries = rng->NextUint64();
    entry.recommendations = rng->NextUint64();
  }
  stats.partitioner_salt = rng->NextUint64();
  stats.server.loop = static_cast<uint8_t>(rng->UniformInt(256));
  stats.server.connections_open = RandomU32(rng);
  stats.server.requests_served = rng->NextUint64();
  stats.server.partial_reads = rng->NextUint64();
  stats.server.partial_writes = rng->NextUint64();
  stats.server.inflight_stalls = rng->NextUint64();
  stats.server.mux_connections = rng->NextUint64();
  return stats;
}

/// Residue in the retired recommendations-reply layout: a coverage tail
/// (0x01 total answered count ids*) or a trace tail (0x02 id origin count
/// stamps*), each well-formed by the old rules.
std::string RetiredReplyTail(Rng* rng) {
  std::string tail;
  if (rng->Bernoulli(0.5)) {
    const uint32_t missing = static_cast<uint32_t>(rng->UniformInt(4));
    persist::PutU8(&tail, 0x01);
    persist::PutU32(&tail, RandomU32(rng));
    persist::PutU32(&tail, RandomU32(rng));
    persist::PutU32(&tail, missing);
    for (uint32_t i = 0; i < missing; ++i) {
      persist::PutU32(&tail, RandomU32(rng));
    }
  } else {
    const uint8_t stamps = static_cast<uint8_t>(rng->UniformInt(4));
    persist::PutU8(&tail, 0x02);
    persist::PutU64(&tail, rng->NextUint64());
    persist::PutI64(&tail, static_cast<int64_t>(rng->NextUint64()));
    persist::PutU8(&tail, stamps);
    for (uint8_t i = 0; i < stamps; ++i) {
      persist::PutU8(&tail, static_cast<uint8_t>(1 + rng->UniformInt(4)));
      persist::PutU32(&tail, RandomU32(rng));
      persist::PutI64(&tail, static_cast<int64_t>(rng->NextUint64()));
    }
  }
  return tail;
}

/// Decodes a recommendations-reply payload that must be rejected, and
/// checks the decoder reserved no more than the payload's bytes can back:
/// a rec costs >= 28 wire bytes and a witness 4.
void ExpectRecsRejected(const std::string& payload, const char* what) {
  std::vector<Recommendation> recs;
  bool has_more = false;
  const Status s = DecodeRecommendationsReply(payload, &recs, &has_more);
  EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s;
  EXPECT_LE(recs.capacity(), payload.size() / 28) << what;
  for (const Recommendation& rec : recs) {
    EXPECT_LE(rec.witnesses.capacity(), payload.size() / 4) << what;
  }
}

/// The same for a stats-reply payload: a replica entry is 33 wire bytes.
void ExpectStatsRejected(const std::string& payload, const char* what) {
  ClusterStats stats;
  const Status s = DecodeStatsReply(payload, &stats);
  EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s;
  EXPECT_LE(stats.per_replica.capacity(), payload.size() / 33) << what;
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

TEST(SessionFuzzTest, ReplyBodiesRoundTripExactly) {
  const uint64_t seed = BaseSeed() ^ 0x4e91'1e5;
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  const int trials = Trials(2'000);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    // A chunk budget from "one rec per frame" to "all in one" makes random
    // chains of one or more frames.
    const std::vector<Recommendation> recs = RandomRecommendations(&rng, 40);
    const size_t budget = 1 + rng.UniformInt(2'048);
    std::string chain;
    AppendRecommendationsReplyChunked(recs, budget, &chain);
    const std::vector<Frame> frames = ParseAll(chain);
    ASSERT_FALSE(frames.empty());
    std::vector<Recommendation> got;
    for (size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(frames[i].tag, MessageTag::kRecommendationsReply);
      bool has_more = false;
      ASSERT_TRUE(
          DecodeRecommendationsReply(frames[i].payload, &got, &has_more).ok())
          << "frame " << i;
      EXPECT_EQ(has_more, i + 1 < frames.size()) << "frame " << i;
    }
    EXPECT_EQ(got, recs);

    const ClusterStats stats = RandomStats(&rng);
    std::string reply;
    AppendStatsReply(stats, &reply);
    const Frame frame = ParseOne(reply);
    ASSERT_EQ(frame.tag, MessageTag::kStatsReply);
    ClusterStats decoded;
    ASSERT_TRUE(DecodeStatsReply(frame.payload, &decoded).ok());
    EXPECT_EQ(decoded, stats);
    if (HasFatalFailure()) return;
  }
}

TEST(SessionFuzzTest, DamagedReplyBodiesReturnAStatus) {
  const uint64_t seed = BaseSeed() ^ 0xbad'1e5;
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  const int trials = Trials(2'000);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    const std::vector<Recommendation> recs = RandomRecommendations(&rng, 4);
    std::string frame;
    AppendRecommendationsReply(recs, rng.Bernoulli(0.5), &frame);
    const std::string recs_payload = ParseOne(frame).payload;
    const ClusterStats stats = RandomStats(&rng);
    std::string stats_frame;
    AppendStatsReply(stats, &stats_frame);
    const std::string stats_payload = ParseOne(stats_frame).payload;

    // Every truncation: each layout is exact, so no strict prefix decodes.
    for (size_t cut = 0; cut < recs_payload.size(); ++cut) {
      ExpectRecsRejected(recs_payload.substr(0, cut), "recs truncation");
    }
    for (size_t cut = 0; cut < stats_payload.size(); ++cut) {
      ExpectStatsRejected(stats_payload.substr(0, cut), "stats truncation");
    }

    // A forged rec count (after has_more), and a forged witness count on
    // the LAST rec: too few leaves residue, too many overruns the payload.
    uint32_t forged = RandomU32(&rng) >> rng.UniformInt(32);
    if (forged == recs.size()) forged++;
    std::string damaged = recs_payload;
    std::memcpy(damaged.data() + 1, &forged, sizeof(forged));
    ExpectRecsRejected(damaged, "forged rec count");
    if (!recs.empty()) {
      const size_t witnesses = recs.back().witnesses.size();
      const size_t at = recs_payload.size() - 4 * witnesses - 4;
      forged = RandomU32(&rng) >> rng.UniformInt(32);
      if (forged == witnesses) forged++;
      damaged = recs_payload;
      std::memcpy(damaged.data() + at, &forged, sizeof(forged));
      ExpectRecsRejected(damaged, "forged witness count");
    }

    // A forged replica count (after the 56 fixed bytes).
    forged = RandomU32(&rng) >> rng.UniformInt(32);
    if (forged == stats.per_replica.size()) forged++;
    damaged = stats_payload;
    std::memcpy(damaged.data() + 56, &forged, sizeof(forged));
    ExpectStatsRejected(damaged, "forged replica count");

    // Any appended byte: random residue, a lone 0x01 or 0x02 marker, or a
    // whole tail in the retired reply layout.
    const std::string residues[] = {
        RandomBytes(&rng, 1 + rng.UniformInt(32)), std::string(1, '\x01'),
        std::string(1, '\x02'), RetiredReplyTail(&rng),
        RetiredReplyTail(&rng) + RetiredReplyTail(&rng)};
    for (const std::string& residue : residues) {
      ExpectRecsRejected(recs_payload + residue, "appended bytes");
      ExpectStatsRejected(stats_payload + residue, "appended bytes");
    }
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace magicrecs::net
