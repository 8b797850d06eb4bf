// Seeded fuzzing of the session gate, the request bodies a daemon parses
// and the reply bodies a broker parses: the hello, the hello reply and the
// mux envelopes are the first bytes a daemon (or a client) parses from an
// untrusted peer; the publish-batch, take, checkpoint and replica-op
// requests are what it then parses off the network; and the ack and recommendations
// replies are what a broker decodes from every daemon. Valid
// messages must round-trip exactly; truncated,
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
  std::vector<EdgeEvent> events;
  uint64_t batch_sequence = 0;
  TraceContext trace;
  Timestamp created_at = 0;
  uint32_t partition = 0, replica = 0;
  std::vector<Recommendation> recs;
  std::vector<TakeAck> acks;
  uint64_t broker = 0;
  Placement placement;
  (void)DecodeHello(payload, &version, &features);
  (void)DecodeHelloReply(payload, &version, &features, &max_inflight,
                         &placement);
  (void)DecodeMuxRequest(payload, &id, &inner);
  (void)DecodeMuxResponse(payload, &id, &last, &inner);
  (void)DecodePublishBatch(payload, &events, &batch_sequence, &trace);
  (void)DecodeTakeRecommendations(payload, &broker, &acks);
  (void)DecodeCheckpoint(payload, &created_at);
  (void)DecodeReplicaOp(payload, &partition, &replica);
  (void)DecodeAck(payload, &trace);
  (void)DecodeRecommendationsReply(payload, &recs, &last, &id);
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

/// Every field of the placement a hello reply carries, randomized.
Placement RandomPlacement(Rng* rng) {
  Placement placement;
  placement.group_size = RandomU32(rng);
  placement.partition = RandomU32(rng);
  placement.salt = rng->NextUint64();
  return placement;
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
    const Placement placement = RandomPlacement(&rng);
    std::string reply;
    AppendHelloReply(features, max_inflight, placement, &reply);
    frame = ParseOne(reply);
    ASSERT_EQ(frame.tag, MessageTag::kHelloReply);
    uint32_t got_inflight = 0;
    Placement got_placement;
    ASSERT_TRUE(DecodeHelloReply(frame.payload, &version, &got_features,
                                 &got_inflight, &got_placement)
                    .ok());
    EXPECT_EQ(version, kProtocolVersion);
    EXPECT_EQ(got_features, features);
    EXPECT_EQ(got_inflight, max_inflight);
    EXPECT_EQ(got_placement, placement);

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
    AppendHelloReply(RandomU32(&rng), RandomU32(&rng), RandomPlacement(&rng),
                     &reply);
    AppendMuxRequest(id, inner, &request);
    AppendMuxResponse(id, rng.Bernoulli(0.5), inner, &response);
    const std::string payloads[] = {
        ParseOne(hello).payload, ParseOne(reply).payload,
        ParseOne(request).payload, ParseOne(response).payload};

    uint32_t version = 0, features = 0, max_inflight = 0;
    Placement placement;
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
          EXPECT_EQ(DecodeHelloReply(prefix, &version, &features,
                                     &max_inflight, &placement)
                        .ok(),
                    cut >= 28)
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
    const uint64_t take = rng.NextUint64();
    std::string chain;
    AppendRecommendationsReplyChunked(recs, budget, &chain, take);
    const std::vector<Frame> frames = ParseAll(chain);
    ASSERT_FALSE(frames.empty());
    std::vector<Recommendation> got;
    for (size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(frames[i].tag, MessageTag::kRecommendationsReply);
      bool has_more = false;
      uint64_t got_take = ~take;
      ASSERT_TRUE(DecodeRecommendationsReply(frames[i].payload, &got,
                                             &has_more, &got_take)
                      .ok())
          << "frame " << i;
      EXPECT_EQ(has_more, i + 1 < frames.size()) << "frame " << i;
      EXPECT_EQ(got_take, take) << "frame " << i;
    }
    EXPECT_EQ(got, recs);
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
    AppendRecommendationsReply(recs, rng.Bernoulli(0.5), &frame,
                               rng.NextUint64());
    const std::string recs_payload = ParseOne(frame).payload;

    // Every truncation: the layout is exact, so no strict prefix decodes.
    for (size_t cut = 0; cut < recs_payload.size(); ++cut) {
      ExpectRecsRejected(recs_payload.substr(0, cut), "recs truncation");
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
      const size_t at = recs_payload.size() - 8 - 4 * witnesses - 4;
      forged = RandomU32(&rng) >> rng.UniformInt(32);
      if (forged == witnesses) forged++;
      damaged = recs_payload;
      std::memcpy(damaged.data() + at, &forged, sizeof(forged));
      ExpectRecsRejected(damaged, "forged witness count");
    }

    // Any appended byte: random residue, a lone 0x01 or 0x02 marker, or a
    // whole tail in the retired reply layout.
    const std::string residues[] = {
        RandomBytes(&rng, 1 + rng.UniformInt(32)), std::string(1, '\x01'),
        std::string(1, '\x02'), RetiredReplyTail(&rng),
        RetiredReplyTail(&rng) + RetiredReplyTail(&rng)};
    for (const std::string& residue : residues) {
      ExpectRecsRejected(recs_payload + residue, "appended bytes");
    }
    if (HasFatalFailure()) return;
  }
}

// --- request bodies and the ack ---------------------------------------------

// Wire sizes of the request-body layouts (wire.h): an event, the batch_seq
// tail, a trace tail's fixed part and one of its stamps.
constexpr size_t kEventWireBytes = 4 + 4 + 8 + 1;
constexpr size_t kSequenceTailBytes = 1 + 8;
constexpr size_t kTraceHeadBytes = 1 + 8 + 8 + 1;
constexpr size_t kStampWireBytes = 1 + 4 + 8;
constexpr size_t kTakeHeadBytes = 8 + 4;
constexpr size_t kTakeAckWireBytes = 4 + 8;

EdgeEvent RandomEvent(Rng* rng) {
  EdgeEvent event;
  event.edge.src = RandomU32(rng);
  event.edge.dst = RandomU32(rng);
  event.edge.created_at = static_cast<Timestamp>(rng->NextUint64());
  event.action = static_cast<ActionType>(rng->UniformInt(256));
  return event;
}

/// An active trace (non-zero id) with up to `max_stamps` random stamps.
TraceContext RandomTrace(Rng* rng, size_t max_stamps) {
  TraceContext trace;
  trace.trace_id = rng->NextUint64() | 1;
  trace.origin_us = static_cast<int64_t>(rng->NextUint64());
  trace.stamps.resize(rng->UniformInt(max_stamps + 1));
  for (TraceStamp& stamp : trace.stamps) {
    stamp.stage = static_cast<uint8_t>(rng->UniformInt(256));
    stamp.party = RandomU32(rng);
    stamp.at_us = static_cast<int64_t>(rng->NextUint64());
  }
  return trace;
}

/// A publish batch as a broker builds one, with or without each tail.
struct PublishCase {
  std::vector<EdgeEvent> events;
  uint64_t batch_sequence = 0;  // 0: no batch_seq tail
  TraceContext trace;           // inactive: no trace tail
  std::string payload;

  size_t events_end() const { return 4 + kEventWireBytes * events.size(); }
  size_t sequence_end() const {
    return events_end() + (batch_sequence != 0 ? kSequenceTailBytes : 0);
  }
};

PublishCase RandomPublish(Rng* rng, size_t max_events, size_t max_stamps) {
  PublishCase c;
  c.events.resize(rng->UniformInt(max_events + 1));
  for (EdgeEvent& event : c.events) event = RandomEvent(rng);
  if (rng->Bernoulli(0.7)) c.batch_sequence = rng->NextUint64() | 1;
  if (rng->Bernoulli(0.5)) c.trace = RandomTrace(rng, max_stamps);
  std::string frame;
  AppendPublishBatch(c.events, &frame, c.batch_sequence, &c.trace);
  const Frame parsed = ParseOne(frame);
  EXPECT_EQ(parsed.tag, MessageTag::kPublishBatch);
  c.payload = parsed.payload;
  return c;
}

/// The decoded events equal `want` field by field (the wire carries no
/// event sequence, so every decoded one is 0).
void ExpectSameEvents(const std::vector<EdgeEvent>& got,
                      const std::vector<EdgeEvent>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].edge.src, want[i].edge.src) << what << " event " << i;
    EXPECT_EQ(got[i].edge.dst, want[i].edge.dst) << what << " event " << i;
    EXPECT_EQ(got[i].edge.created_at, want[i].edge.created_at)
        << what << " event " << i;
    EXPECT_EQ(got[i].action, want[i].action) << what << " event " << i;
    EXPECT_EQ(got[i].sequence, 0u) << what << " event " << i;
  }
}

/// Decodes a publish-batch payload and checks the decoder reserved no more
/// than the payload's bytes can back, whatever the outcome.
Status DecodePublishBacked(const std::string& payload, const char* what) {
  std::vector<EdgeEvent> events;
  uint64_t batch_sequence = 0;
  TraceContext trace;
  const Status s =
      DecodePublishBatch(payload, &events, &batch_sequence, &trace);
  EXPECT_LE(events.capacity(), payload.size() / kEventWireBytes) << what;
  EXPECT_LE(trace.stamps.capacity(), payload.size() / kStampWireBytes)
      << what;
  return s;
}

/// A take request of up to `max` random cursor entries.
std::vector<TakeAck> RandomAcks(Rng* rng, size_t max) {
  std::vector<TakeAck> acks(rng->UniformInt(max + 1));
  for (TakeAck& ack : acks) ack = {RandomU32(rng), rng->NextUint64()};
  return acks;
}

/// The same for a take-request payload that must be rejected.
void ExpectTakeRejected(const std::string& payload, const char* what) {
  uint64_t broker = 0;
  std::vector<TakeAck> acks;
  const Status s = DecodeTakeRecommendations(payload, &broker, &acks);
  EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s;
  EXPECT_LE(acks.capacity(), payload.size() / kTakeAckWireBytes) << what;
}

void ExpectPublishRejected(const std::string& payload, const char* what) {
  const Status s = DecodePublishBacked(payload, what);
  EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s;
}

/// The same for an ack payload.
void ExpectAckRejected(const std::string& payload, const char* what) {
  TraceContext trace;
  const Status s = DecodeAck(payload, &trace);
  EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s;
  EXPECT_LE(trace.stamps.capacity(), payload.size() / kStampWireBytes)
      << what;
}

/// Random residue whose first byte is no tail's presence marker: a
/// marker-led residue may be a well-formed tail, which the layout allows.
std::string UnmarkedResidue(Rng* rng) {
  std::string residue = RandomBytes(rng, 1 + rng->UniformInt(32));
  while (residue[0] == '\x01' || residue[0] == '\x02') {
    residue[0] = static_cast<char>(rng->UniformInt(256));
  }
  return residue;
}

/// A random byte other than `marker`.
char OtherThan(Rng* rng, uint8_t marker) {
  const auto byte = static_cast<uint8_t>(rng->UniformInt(256));
  return static_cast<char>(byte == marker ? byte ^ 0x80 : byte);
}

std::string SequenceTail(Rng* rng) {
  std::string tail;
  persist::PutU8(&tail, 0x01);
  persist::PutU64(&tail, rng->NextUint64() | 1);
  return tail;
}

std::string TraceTail(Rng* rng) {
  const TraceContext trace = RandomTrace(rng, 3);
  std::string ack;
  AppendAck(&ack, &trace);
  return ParseOne(ack).payload;  // an ack's payload is exactly its tail
}

TEST(SessionFuzzTest, RequestBodiesAndAckRoundTripExactly) {
  const uint64_t seed = BaseSeed() ^ 0x7e9'b0d1e5;
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  const int trials = Trials(2'000);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    const PublishCase publish =
        RandomPublish(&rng, rng.Bernoulli(0.1) ? 256 : 16, kMaxTraceStamps);
    std::vector<EdgeEvent> events;
    uint64_t batch_sequence = ~uint64_t{0};
    TraceContext trace;
    ASSERT_TRUE(DecodePublishBatch(publish.payload, &events, &batch_sequence,
                                   &trace)
                    .ok());
    ExpectSameEvents(events, publish.events, "publish-batch");
    EXPECT_EQ(batch_sequence, publish.batch_sequence);
    EXPECT_EQ(trace, publish.trace);
    // The optional outputs may be omitted.
    ASSERT_TRUE(DecodePublishBatch(publish.payload, &events).ok());
    ExpectSameEvents(events, publish.events, "publish-batch, no tails out");

    const std::vector<TakeAck> acks =
        RandomAcks(&rng, rng.Bernoulli(0.1) ? 256 : 8);
    const uint64_t broker = rng.NextUint64();
    std::string frame;
    AppendTakeRecommendations(broker, acks, &frame);
    Frame parsed = ParseOne(frame);
    ASSERT_EQ(parsed.tag, MessageTag::kTakeRecommendations);
    uint64_t got_broker = 0;
    std::vector<TakeAck> got_acks = RandomAcks(&rng, 2);  // overwritten
    ASSERT_TRUE(
        DecodeTakeRecommendations(parsed.payload, &got_broker, &got_acks)
            .ok());
    EXPECT_EQ(got_broker, broker);
    EXPECT_EQ(got_acks, acks);

    const Timestamp created_at = static_cast<Timestamp>(rng.NextUint64());
    frame.clear();
    AppendCheckpoint(created_at, &frame);
    parsed = ParseOne(frame);
    ASSERT_EQ(parsed.tag, MessageTag::kCheckpoint);
    Timestamp got_created_at = 0;
    ASSERT_TRUE(DecodeCheckpoint(parsed.payload, &got_created_at).ok());
    EXPECT_EQ(got_created_at, created_at);

    const MessageTag op = rng.Bernoulli(0.5) ? MessageTag::kKillReplica
                                             : MessageTag::kRecoverReplica;
    const uint32_t partition = RandomU32(&rng), replica = RandomU32(&rng);
    frame.clear();
    AppendReplicaOp(op, partition, replica, &frame);
    parsed = ParseOne(frame);
    ASSERT_EQ(parsed.tag, op);
    uint32_t got_partition = 0, got_replica = 0;
    ASSERT_TRUE(
        DecodeReplicaOp(parsed.payload, &got_partition, &got_replica).ok());
    EXPECT_EQ(got_partition, partition);
    EXPECT_EQ(got_replica, replica);

    const TraceContext echo = rng.Bernoulli(0.5)
                                  ? RandomTrace(&rng, kMaxTraceStamps)
                                  : TraceContext{};
    frame.clear();
    AppendAck(&frame, &echo);
    parsed = ParseOne(frame);
    ASSERT_EQ(parsed.tag, MessageTag::kAck);
    EXPECT_EQ(parsed.payload.empty(), !echo.active());
    TraceContext got_echo = RandomTrace(&rng, 2);  // overwritten either way
    ASSERT_TRUE(DecodeAck(parsed.payload, &got_echo).ok());
    EXPECT_EQ(got_echo, echo);
    if (HasFatalFailure()) return;
  }
}

TEST(SessionFuzzTest, DamagedRequestBodiesAndAckReturnAStatus) {
  const uint64_t seed = BaseSeed() ^ 0xbad'b0d1e5;
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  const int trials = Trials(2'000);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    const PublishCase publish = RandomPublish(&rng, 6, 6);
    const std::string& payload = publish.payload;
    const bool has_sequence = publish.batch_sequence != 0;
    const bool has_trace = publish.trace.active();

    // Every truncation. A batch may end after its events or after its
    // batch_seq tail, so those two cuts decode (to the events, and the
    // sequence the cut kept); every other strict prefix is rejected.
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string prefix = payload.substr(0, cut);
      if (cut != publish.events_end() && cut != publish.sequence_end()) {
        ExpectPublishRejected(prefix, "publish truncation");
        continue;
      }
      std::vector<EdgeEvent> events;
      uint64_t batch_sequence = ~uint64_t{0};
      TraceContext trace = publish.trace;
      ASSERT_TRUE(
          DecodePublishBatch(prefix, &events, &batch_sequence, &trace).ok())
          << "publish cut at tail boundary " << cut;
      ExpectSameEvents(events, publish.events, "publish tail boundary");
      EXPECT_EQ(batch_sequence,
                cut == publish.sequence_end() ? publish.batch_sequence : 0);
      EXPECT_FALSE(trace.active()) << "publish cut at " << cut;
    }
    DecodeAll(payload.substr(0, rng.UniformInt(payload.size() + 1)));

    // A forged event count. One the payload cannot back is rejected before
    // anything is reserved; a smaller one reparses the rest as events and
    // tails, and whatever it decides, it reserves only what the bytes back.
    uint32_t forged = RandomU32(&rng) >> rng.UniformInt(32);
    if (forged == publish.events.size()) forged++;
    std::string damaged = payload;
    std::memcpy(damaged.data(), &forged, sizeof(forged));
    const Status forged_count = DecodePublishBacked(damaged, "forged count");
    if (uint64_t{forged} * kEventWireBytes > payload.size() - 4) {
      EXPECT_TRUE(forged_count.IsInvalidArgument())
          << "forged count " << forged << ": " << forged_count;
    }
    DecodeAll(damaged);

    // A forged stamp count: the stamps must fill the tail exactly.
    if (has_trace) {
      const size_t at = publish.sequence_end() + kTraceHeadBytes - 1;
      uint8_t stamps = static_cast<uint8_t>(rng.UniformInt(256));
      if (stamps == publish.trace.stamps.size()) stamps++;
      damaged = payload;
      damaged[at] = static_cast<char>(stamps);
      ExpectPublishRejected(damaged, "forged stamp count");
    }

    // A flipped presence marker never turns a tail into another one.
    if (has_sequence) {
      damaged = payload;
      damaged[publish.events_end()] = OtherThan(&rng, 0x01);
      ExpectPublishRejected(damaged, "flipped batch_seq marker");
    }
    if (has_trace) {
      damaged = payload;
      damaged[publish.sequence_end()] = OtherThan(&rng, 0x02);
      ExpectPublishRejected(damaged, "flipped trace marker");
    }

    // Trailing bytes: unmarked residue, a lone marker, and a tail out of
    // order (anything after the trace tail, a second batch_seq tail).
    std::vector<std::string> residues = {UnmarkedResidue(&rng),
                                         std::string(1, '\x01'),
                                         std::string(1, '\x02')};
    if (has_trace) {
      residues.push_back(SequenceTail(&rng));
      residues.push_back(TraceTail(&rng));
    } else if (has_sequence) {
      residues.push_back(SequenceTail(&rng));
    }
    for (const std::string& residue : residues) {
      ExpectPublishRejected(payload + residue, "publish trailing bytes");
      DecodeAll(payload + residue);
    }

    // The take request is an exact layout: every strict prefix, a forged
    // count and any appended byte are rejected, reserving nothing the
    // payload cannot back.
    std::string frame;
    AppendTakeRecommendations(rng.NextUint64(), RandomAcks(&rng, 6), &frame);
    const std::string take = ParseOne(frame).payload;
    for (size_t cut = 0; cut < take.size(); ++cut) {
      ExpectTakeRejected(take.substr(0, cut), "take truncation");
    }
    const auto entries = static_cast<uint32_t>((take.size() - kTakeHeadBytes) /
                                               kTakeAckWireBytes);
    forged = RandomU32(&rng) >> rng.UniformInt(32);
    if (forged == entries) forged++;
    damaged = take;
    std::memcpy(damaged.data() + sizeof(uint64_t), &forged, sizeof(forged));
    ExpectTakeRejected(damaged, "forged take count");
    ExpectTakeRejected(take + RandomBytes(&rng, 1 + rng.UniformInt(32)),
                       "take trailing bytes");

    // Checkpoint and replica ops are exact 8-byte layouts.
    frame.clear();
    AppendCheckpoint(static_cast<Timestamp>(rng.NextUint64()), &frame);
    const std::string checkpoint = ParseOne(frame).payload;
    frame.clear();
    AppendReplicaOp(MessageTag::kKillReplica, RandomU32(&rng),
                    RandomU32(&rng), &frame);
    const std::string replica_op = ParseOne(frame).payload;
    Timestamp created_at = 0;
    uint32_t partition = 0, replica = 0;
    for (size_t cut = 0; cut < 8; ++cut) {
      EXPECT_TRUE(DecodeCheckpoint(checkpoint.substr(0, cut), &created_at)
                      .IsInvalidArgument())
          << "checkpoint cut at " << cut;
      EXPECT_TRUE(DecodeReplicaOp(replica_op.substr(0, cut), &partition,
                                  &replica)
                      .IsInvalidArgument())
          << "replica-op cut at " << cut;
    }
    const std::string residue = RandomBytes(&rng, 1 + rng.UniformInt(32));
    EXPECT_TRUE(DecodeCheckpoint(checkpoint + residue, &created_at)
                    .IsInvalidArgument());
    EXPECT_TRUE(DecodeReplicaOp(replica_op + residue, &partition, &replica)
                    .IsInvalidArgument());

    // The ack: empty, or exactly one trace tail.
    const TraceContext echo = RandomTrace(&rng, 6);
    frame.clear();
    AppendAck(&frame, &echo);
    const std::string ack = ParseOne(frame).payload;
    for (size_t cut = 1; cut < ack.size(); ++cut) {
      ExpectAckRejected(ack.substr(0, cut), "ack truncation");
    }
    damaged = ack;
    uint8_t stamps = static_cast<uint8_t>(rng.UniformInt(256));
    if (stamps == echo.stamps.size()) stamps++;
    damaged[kTraceHeadBytes - 1] = static_cast<char>(stamps);
    ExpectAckRejected(damaged, "ack forged stamp count");
    damaged = ack;
    damaged[0] = OtherThan(&rng, 0x02);
    ExpectAckRejected(damaged, "ack flipped marker");
    ExpectAckRejected(ack + RandomBytes(&rng, 1 + rng.UniformInt(32)),
                      "bytes after the ack trace tail");
    ExpectAckRejected(UnmarkedResidue(&rng), "unmarked ack residue");
    ExpectAckRejected(std::string(1, '\x02'), "lone ack marker");
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace magicrecs::net
