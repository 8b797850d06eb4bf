#include "gen/social_graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "util/random.h"
#include "util/str_format.h"

namespace magicrecs {

SocialGraphGenerator::SocialGraphGenerator(const SocialGraphOptions& options)
    : options_(options) {}

Result<StaticGraph> SocialGraphGenerator::Generate() const {
  const SocialGraphOptions& opt = options_;
  if (opt.num_users == 0) {
    return Status::InvalidArgument("num_users must be positive");
  }
  if (opt.num_users >= kInvalidVertex) {
    return Status::InvalidArgument("num_users exceeds the vertex id space");
  }
  if (!std::isfinite(opt.mean_followees) || opt.mean_followees <= 0) {
    return Status::InvalidArgument(
        "mean_followees must be finite and positive");
  }
  if (opt.popularity_exponent <= 0) {
    return Status::InvalidArgument("popularity_exponent must be positive");
  }
  if (opt.reciprocity < 0 || opt.reciprocity > 1) {
    return Status::InvalidArgument("reciprocity must be within [0, 1]");
  }

  Rng rng(opt.seed);

  // Popularity rank -> user id permutation, so ids carry no popularity
  // signal (rank 1 = most popular).
  std::vector<VertexId> rank_to_user(opt.num_users);
  std::iota(rank_to_user.begin(), rank_to_user.end(), 0);
  rng.Shuffle(&rank_to_user);

  ZipfDistribution popularity(opt.num_users, opt.popularity_exponent);

  // Log-normal out-degree with the requested mean: mean = exp(mu + s^2/2).
  const double sigma = std::max(0.0, opt.out_degree_sigma);
  const double mu = std::log(opt.mean_followees) - sigma * sigma / 2.0;

  StaticGraphBuilder builder(opt.num_users);
  std::unordered_set<VertexId> picked;
  for (VertexId user = 0; user < opt.num_users; ++user) {
    double degree_draw =
        sigma == 0.0 ? opt.mean_followees : rng.LogNormal(mu, sigma);
    uint32_t degree = static_cast<uint32_t>(std::min<double>(
        std::max(degree_draw, 0.0), static_cast<double>(opt.max_followees)));
    degree = std::min<uint32_t>(degree, opt.num_users - 1);

    picked.clear();
    uint32_t attempts = 0;
    const uint32_t max_attempts = degree * 20 + 100;
    while (picked.size() < degree && attempts < max_attempts) {
      ++attempts;
      const uint64_t rank = popularity.Sample(&rng);
      const VertexId target = rank_to_user[rank - 1];
      if (target == user) continue;
      if (!picked.insert(target).second) continue;
      MAGICRECS_RETURN_IF_ERROR(builder.AddEdge(user, target));
      if (opt.reciprocity > 0 && rng.Bernoulli(opt.reciprocity)) {
        MAGICRECS_RETURN_IF_ERROR(builder.AddEdge(target, user));
      }
    }
  }
  return builder.Build();
}

}  // namespace magicrecs
