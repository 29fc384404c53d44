// Tests for the entropy metrics.
#include <gtest/gtest.h>

#include "metrics/entropy.hpp"
#include "util/rng.hpp"

namespace ppuf {
namespace {

// ------------------------------------------------------------------ entropy

using metrics::ResponseMatrix;

TEST(Entropy, BinaryEntropyKnownValues) {
  EXPECT_DOUBLE_EQ(metrics::binary_entropy(0.5), 1.0);
  EXPECT_DOUBLE_EQ(metrics::binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(metrics::binary_entropy(1.0), 0.0);
  EXPECT_NEAR(metrics::binary_entropy(0.25), 0.811278, 1e-6);
  EXPECT_THROW(metrics::binary_entropy(1.5), std::invalid_argument);
}

TEST(Entropy, PerfectlyBalancedPopulation) {
  const ResponseMatrix m{{1, 0}, {0, 1}};  // both challenges split 50/50
  EXPECT_DOUBLE_EQ(metrics::shannon_entropy_per_bit(m), 1.0);
  EXPECT_DOUBLE_EQ(metrics::min_entropy_per_bit(m), 1.0);
}

TEST(Entropy, ConstantResponsesHaveZeroEntropy) {
  const ResponseMatrix m{{1, 0}, {1, 0}, {1, 0}};
  EXPECT_DOUBLE_EQ(metrics::shannon_entropy_per_bit(m), 0.0);
  EXPECT_DOUBLE_EQ(metrics::min_entropy_per_bit(m), 0.0);
}

TEST(Entropy, MinEntropyLowerBoundsShannon) {
  util::Rng rng(5);
  ResponseMatrix m(16, metrics::BitVector(24));
  for (auto& row : m)
    for (auto& b : row) b = rng.uniform() < 0.3 ? 1 : 0;
  const double shannon = metrics::shannon_entropy_per_bit(m);
  const double min_e = metrics::min_entropy_per_bit(m);
  EXPECT_LE(min_e, shannon + 1e-12);
  EXPECT_GT(min_e, 0.0);
}

TEST(Entropy, MutualInformationOfCopiedBitsIsHigh) {
  // Challenge 1 duplicates challenge 0 exactly; 2 is independent-ish.
  util::Rng rng(6);
  ResponseMatrix m(32, metrics::BitVector(3));
  for (auto& row : m) {
    row[0] = rng.coin() ? 1 : 0;
    row[1] = row[0];
    row[2] = rng.coin() ? 1 : 0;
  }
  // Pairs: (0,1) identical -> MI ~ 1 bit; (0,2), (1,2) -> ~0.
  const double mi = metrics::mean_pairwise_mutual_information(m);
  EXPECT_GT(mi, 0.2);
  EXPECT_LT(mi, 0.6);
}

TEST(Entropy, MutualInformationOfIndependentBitsNearZero) {
  util::Rng rng(7);
  ResponseMatrix m(200, metrics::BitVector(8));
  for (auto& row : m)
    for (auto& b : row) b = rng.coin() ? 1 : 0;
  EXPECT_LT(metrics::mean_pairwise_mutual_information(m), 0.05);
}

TEST(Entropy, Validation) {
  EXPECT_THROW(metrics::shannon_entropy_per_bit({}), std::invalid_argument);
  EXPECT_THROW(metrics::mean_pairwise_mutual_information(
                   ResponseMatrix{{1}, {0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppuf
