// Damage sweep of LoadEdgeList: random edge files are cut at every byte,
// have every bit flipped, and are spliced with each other at random points.
// Every damaged file must load as OK or Corruption, never crash, and any
// graph that loads must be well formed: sorted, duplicate-free rows whose
// targets are vertices of the graph.
//
// Ids and numeric trailing fields stay below 100, so the longest digit run
// one flip or splice can make (a separator turned into '0', or two runs
// joined) stays near 10^5: the dense vertex range a damaged file can ask
// for stays small.
//
// The files are seeded; failures print the seed, rerun with
// MAGICRECS_FUZZ_SEED=<seed>.

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../persist/scoped_temp_dir.h"
#include "graph/graph_io.h"
#include "util/random.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

uint64_t BaseSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 8642;
}

constexpr int kFiles = 6;
constexpr int kSplicesPerFile = 300;

/// A small well-formed edge file in the layouts the loader accepts.
std::string RandomEdgeFile(Rng& rng) {
  static const std::vector<std::string> kSeparators = {" ", "\t", "  "};
  static const std::vector<std::string> kTails = {"", "", " 17", "\t3 extra",
                                                  " # note", "\r"};
  std::string bytes = "# edge list: src dst\n";
  const size_t lines = 5 + rng.UniformInt(25);
  for (size_t i = 0; i < lines; ++i) {
    if (rng.Bernoulli(0.1)) bytes += rng.Bernoulli(0.5) ? "\n" : "# c\n";
    bytes += std::to_string(rng.UniformInt(100));
    bytes += kSeparators[rng.UniformInt(kSeparators.size())];
    bytes += std::to_string(rng.UniformInt(100));
    bytes += kTails[rng.UniformInt(kTails.size())];
    bytes += "\n";
  }
  return bytes;
}

class GraphIoFuzzTest : public ::testing::Test {
 protected:
  /// Loads `bytes` through a random read buffer and checks the outcome.
  void Check(Rng& rng, const std::string& bytes, const std::string& what) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const size_t buffer_bytes = rng.Bernoulli(0.25)
                                    ? graph_io_internal::kReadBufferBytes
                                    : 1 + rng.UniformInt(16);
    auto loaded = graph_io_internal::LoadEdgeList(path_, path_, buffer_bytes);
    ++loads_;
    if (!loaded.ok()) {
      ASSERT_TRUE(loaded.status().IsCorruption())
          << what << ": " << loaded.status();
      return;
    }
    const StaticGraph& g = *loaded;
    size_t edges = 0;
    for (size_t v = 0; v < g.num_vertices(); ++v) {
      const auto row = g.Neighbors(static_cast<VertexId>(v));
      edges += row.size();
      for (size_t i = 0; i < row.size(); ++i) {
        ASSERT_LT(row[i], g.num_vertices()) << what << ", row " << v;
        if (i > 0) {
          ASSERT_LT(row[i - 1], row[i]) << what << ", row " << v;
        }
      }
    }
    ASSERT_EQ(edges, g.num_edges()) << what;
  }

  ScopedTempDir dir_;
  const std::string path_ = dir_.path() + "/damaged.txt";
  size_t loads_ = 0;
};

TEST_F(GraphIoFuzzTest, TruncatedFlippedAndSplicedFilesLoadOrAreCorruption) {
  for (int f = 0; f < kFiles; ++f) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(f);
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    const std::string file = RandomEdgeFile(rng);
    const std::string other = RandomEdgeFile(rng);

    for (size_t cut = 0; cut <= file.size(); ++cut) {
      Check(rng, file.substr(0, cut), StrFormat("cut at %zu", cut));
      if (HasFatalFailure()) return;
    }
    for (size_t byte = 0; byte < file.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = file;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        Check(rng, flipped, StrFormat("bit %d of byte %zu flipped", bit, byte));
        if (HasFatalFailure()) return;
      }
    }
    for (int s = 0; s < kSplicesPerFile; ++s) {
      const size_t head = rng.UniformInt(file.size() + 1);
      const size_t tail = rng.UniformInt(other.size() + 1);
      Check(rng, file.substr(0, head) + other.substr(tail),
            StrFormat("splice of %zu + other from %zu", head, tail));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(loads_, 0u);
}

}  // namespace
}  // namespace magicrecs
