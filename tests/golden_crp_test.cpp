// Golden CRP regression vectors.
//
// tests/data/golden_crps.json pins, for one fixed-seed instance, the full
// CRP pipeline end to end: the challenge stream a seed produces, the
// silicon response bits (noiseless evaluate()), and the public model's two
// max-flow values per challenge.  ANY drift — challenge sampling, device
// physics, solver behaviour, model extraction — fails here with a precise
// diff instead of silently shifting every statistical bench.  This file
// replaces the ad-hoc frozen seeds that used to live in regression_test.cpp
// (the 24-bit frozen stream moved here verbatim: same instance seed 31415,
// same challenge seed 9).
//
// Intentional changes (e.g. a recalibrated device card) re-record with:
//   PPUF_UPDATE_GOLDEN=1 ./golden_crp_test
// and a review of the resulting JSON diff.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "util/rng.hpp"

namespace ppuf {
namespace {

constexpr std::size_t kNodeCount = 8;
constexpr std::size_t kGridSize = 4;
constexpr std::uint64_t kFabricationSeed = 31415;
constexpr std::uint64_t kChallengeSeed = 9;
constexpr std::size_t kCrpCount = 24;

#ifndef PPUF_TEST_DATA_DIR
#error "PPUF_TEST_DATA_DIR must be defined by the build"
#endif

std::string golden_path() {
  return std::string(PPUF_TEST_DATA_DIR) + "/golden_crps.json";
}

struct GoldenCrp {
  std::size_t index = 0;
  graph::VertexId source = 0;
  graph::VertexId sink = 0;
  std::string bits;
  int silicon_bit = 0;
  int model_bit = 0;
  double flow_a = 0.0;
  double flow_b = 0.0;
};

struct GoldenFile {
  std::size_t node_count = 0;
  std::size_t grid_size = 0;
  std::uint64_t fabrication_seed = 0;
  std::uint64_t challenge_seed = 0;
  std::vector<GoldenCrp> crps;
};

// --- minimal parser for the file's own fixed JSON shape -------------------

/// Value token following `"key":` inside `text`, starting at `from`.
/// Handles numbers and quoted strings; this is a schema-specific reader,
/// not a JSON library.
std::string extract_value(const std::string& text, const std::string& key,
                          std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos)
    throw std::runtime_error("golden file: missing key " + key);
  std::size_t i = at + needle.size();
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i < text.size() && text[i] == '"') {
    const std::size_t end = text.find('"', i + 1);
    if (end == std::string::npos)
      throw std::runtime_error("golden file: unterminated string for " + key);
    return text.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < text.size() && text[end] != ',' && text[end] != '}' &&
         text[end] != '\n')
    ++end;
  return text.substr(i, end - i);
}

GoldenFile parse_golden(const std::string& text) {
  GoldenFile g;
  g.node_count = std::stoul(extract_value(text, "node_count"));
  g.grid_size = std::stoul(extract_value(text, "grid_size"));
  g.fabrication_seed = std::stoull(extract_value(text, "fabrication_seed"));
  g.challenge_seed = std::stoull(extract_value(text, "challenge_seed"));
  const std::size_t count = std::stoul(extract_value(text, "crp_count"));

  std::size_t cursor = text.find("\"crps\":");
  if (cursor == std::string::npos)
    throw std::runtime_error("golden file: missing crps array");
  for (std::size_t i = 0; i < count; ++i) {
    GoldenCrp crp;
    // Each object carries its index first; anchor all lookups on it so a
    // malformed object cannot borrow fields from its neighbour.
    const std::string idx_needle = "{\"index\": " + std::to_string(i);
    const std::size_t at = text.find(idx_needle, cursor);
    if (at == std::string::npos)
      throw std::runtime_error("golden file: missing crp " +
                               std::to_string(i));
    crp.index = i;
    crp.source = static_cast<graph::VertexId>(
        std::stoul(extract_value(text, "source", at)));
    crp.sink = static_cast<graph::VertexId>(
        std::stoul(extract_value(text, "sink", at)));
    crp.bits = extract_value(text, "bits", at);
    crp.silicon_bit = std::stoi(extract_value(text, "silicon_bit", at));
    crp.model_bit = std::stoi(extract_value(text, "model_bit", at));
    crp.flow_a = std::stod(extract_value(text, "flow_a", at));
    crp.flow_b = std::stod(extract_value(text, "flow_b", at));
    g.crps.push_back(crp);
    cursor = at + idx_needle.size();
  }
  return g;
}

// --- generation (shared by update mode and the test itself) ---------------

std::string bits_to_string(const Challenge& c) {
  std::string s;
  for (const auto b : c.bits) s.push_back(b ? '1' : '0');
  return s;
}

/// Recompute the full golden record from the fixed seeds, characterising
/// the instance through the sparse core or the dense LU oracle.
std::vector<GoldenCrp> compute_current(bool dense_solver = false) {
  PpufParams params;
  params.node_count = kNodeCount;
  params.grid_size = kGridSize;
  MaxFlowPpuf puf(params, kFabricationSeed);
  puf.set_dense_solver(dense_solver);
  SimulationModel model(puf);
  util::Rng rng(kChallengeSeed);

  std::vector<GoldenCrp> crps;
  for (std::size_t i = 0; i < kCrpCount; ++i) {
    const Challenge c = random_challenge(puf.layout(), rng);
    GoldenCrp crp;
    crp.index = i;
    crp.source = c.source;
    crp.sink = c.sink;
    crp.bits = bits_to_string(c);
    crp.silicon_bit = puf.evaluate(c).bit;
    const auto p = model.predict(c);
    crp.model_bit = p.bit;
    crp.flow_a = p.flow_a;
    crp.flow_b = p.flow_b;
    crps.push_back(crp);
  }
  return crps;
}

void write_golden(const std::string& path,
                  const std::vector<GoldenCrp>& crps) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << "{\n";
  out << "  \"schema\": \"ppuf-golden-crps-v1\",\n";
  out << "  \"node_count\": " << kNodeCount << ",\n";
  out << "  \"grid_size\": " << kGridSize << ",\n";
  out << "  \"fabrication_seed\": " << kFabricationSeed << ",\n";
  out << "  \"challenge_seed\": " << kChallengeSeed << ",\n";
  out << "  \"crp_count\": " << crps.size() << ",\n";
  out << "  \"crps\": [\n";
  out << std::scientific << std::setprecision(17);
  for (std::size_t i = 0; i < crps.size(); ++i) {
    const GoldenCrp& c = crps[i];
    out << "    {\"index\": " << c.index << ", \"source\": " << c.source
        << ", \"sink\": " << c.sink << ", \"bits\": \"" << c.bits
        << "\", \"silicon_bit\": " << c.silicon_bit
        << ", \"model_bit\": " << c.model_bit << ", \"flow_a\": " << c.flow_a
        << ", \"flow_b\": " << c.flow_b << "}"
        << (i + 1 == crps.size() ? "" : ",") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

TEST(GoldenCrp, RecordedVectorsMatchCurrentBehaviour) {
  if (std::getenv("PPUF_UPDATE_GOLDEN") != nullptr) {
    write_golden(golden_path(), compute_current());
    GTEST_SKIP() << "golden file re-recorded at " << golden_path()
                 << "; review the diff and commit";
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in) << "missing " << golden_path()
                  << " (generate with PPUF_UPDATE_GOLDEN=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const GoldenFile golden = parse_golden(buffer.str());

  ASSERT_EQ(golden.node_count, kNodeCount);
  ASSERT_EQ(golden.grid_size, kGridSize);
  ASSERT_EQ(golden.fabrication_seed, kFabricationSeed);
  ASSERT_EQ(golden.challenge_seed, kChallengeSeed);
  ASSERT_EQ(golden.crps.size(), kCrpCount);

  const std::vector<GoldenCrp> current = compute_current();
  for (std::size_t i = 0; i < kCrpCount; ++i) {
    const GoldenCrp& want = golden.crps[i];
    const GoldenCrp& got = current[i];
    // Challenge stream drift (RNG or sampling change) is its own failure
    // mode, distinct from response drift.
    EXPECT_EQ(got.source, want.source) << "challenge stream drift, crp " << i;
    EXPECT_EQ(got.sink, want.sink) << "challenge stream drift, crp " << i;
    EXPECT_EQ(got.bits, want.bits) << "challenge stream drift, crp " << i;
    // Response bits are exact; flows allow only float-level slack so that
    // any real solver or physics change trips the test.
    EXPECT_EQ(got.silicon_bit, want.silicon_bit) << "silicon drift, crp "
                                                 << i;
    EXPECT_EQ(got.model_bit, want.model_bit) << "model drift, crp " << i;
    const double tol_a = 1e-9 * std::abs(want.flow_a);
    const double tol_b = 1e-9 * std::abs(want.flow_b);
    EXPECT_NEAR(got.flow_a, want.flow_a, tol_a) << "flow drift, crp " << i;
    EXPECT_NEAR(got.flow_b, want.flow_b, tol_b) << "flow drift, crp " << i;
  }
}

TEST(GoldenCrp, DenseOracleReproducesGoldenCorpusBitForBit) {
  // The goldens were recorded with the dense linear core; the sparse core
  // is now the default, so RecordedVectorsMatchCurrentBehaviour already
  // pins sparse-vs-goldens.  This leg closes the triangle: recompute the
  // whole corpus through the dense oracle and demand identical response
  // bits (and solver-tolerance flows) against the sparse recomputation.
  const std::vector<GoldenCrp> sparse = compute_current();
  const std::vector<GoldenCrp> dense = compute_current(/*dense_solver=*/true);

  ASSERT_EQ(sparse.size(), dense.size());
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_EQ(sparse[i].bits, dense[i].bits) << "crp " << i;
    EXPECT_EQ(sparse[i].silicon_bit, dense[i].silicon_bit)
        << "sparse/dense silicon bit drift, crp " << i;
    EXPECT_EQ(sparse[i].model_bit, dense[i].model_bit)
        << "sparse/dense model bit drift, crp " << i;
    EXPECT_NEAR(sparse[i].flow_a, dense[i].flow_a,
                1e-9 * std::abs(dense[i].flow_a))
        << "crp " << i;
    EXPECT_NEAR(sparse[i].flow_b, dense[i].flow_b,
                1e-9 * std::abs(dense[i].flow_b))
        << "crp " << i;
  }
}

TEST(GoldenCrp, SiliconAndModelBitsAgreeOnTheGoldenStream) {
  // The golden instance is also a compact execution-vs-simulation check:
  // on this instance the noiseless silicon bit and the model bit agree on
  // every recorded challenge (no challenge sits inside the comparator's
  // inaccuracy band for this draw).
  for (const GoldenCrp& crp : compute_current())
    EXPECT_EQ(crp.silicon_bit, crp.model_bit) << "crp " << crp.index;
}

}  // namespace
}  // namespace ppuf
