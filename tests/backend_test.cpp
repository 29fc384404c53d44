// Tests for the pluggable PUF backend subsystem (src/backend): the
// backend registry, the max-flow wrapper's bit-for-bit equivalence with
// the direct SimulationModel path, the PDL delay-PUF implementation, the
// backend-tagged persistence formats (including pre-tag backward
// compatibility), and the paper's Fig. 10 learnability comparison run
// against BOTH backends through the real network path.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "attack/harness.hpp"
#include "backend/backend.hpp"
#include "backend/maxflow_backend.hpp"
#include "backend/pdl_backend.hpp"
#include "net/client.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/codec.hpp"
#include "puf/arbiter.hpp"
#include "registry/device_registry.hpp"
#include "registry/hydration_cache.hpp"
#include "registry/record.hpp"
#include "server/auth_server.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "test_dirs.hpp"

namespace ppuf {
namespace {

using test::fresh_dir;

namespace fs = std::filesystem;
using backend::BackendKind;
using protocol::codec::Reader;
using protocol::codec::Writer;
using util::Status;
using util::StatusCode;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// ------------------------------------------------------- backend registry

TEST(Backend, LookupByKindAndNameRejectsUnknown) {
  const backend::PufBackend* mf = backend::find_backend(BackendKind::kMaxFlow);
  const backend::PufBackend* pdl =
      backend::find_backend(BackendKind::kPdlDelay);
  ASSERT_NE(mf, nullptr);
  ASSERT_NE(pdl, nullptr);
  EXPECT_EQ(mf->kind(), BackendKind::kMaxFlow);
  EXPECT_EQ(pdl->kind(), BackendKind::kPdlDelay);
  EXPECT_STREQ(mf->name(), "maxflow");
  EXPECT_STREQ(pdl->name(), "pdl");
  // Lookups are stateless singletons: the same pointer every time.
  EXPECT_EQ(mf, backend::find_backend(std::string("maxflow")));
  EXPECT_EQ(pdl, backend::find_backend(std::string("pdl")));
  // 0 is reserved; unknown kinds and names resolve to null, never a
  // default backend.
  EXPECT_EQ(backend::find_backend(static_cast<BackendKind>(0)), nullptr);
  EXPECT_EQ(backend::find_backend(static_cast<BackendKind>(0x7f)), nullptr);
  EXPECT_EQ(backend::find_backend(std::string("flux-capacitor")), nullptr);

  EXPECT_STREQ(backend::backend_name(BackendKind::kMaxFlow), "maxflow");
  EXPECT_STREQ(backend::backend_name(BackendKind::kPdlDelay), "pdl");
  EXPECT_STREQ(backend::backend_name(static_cast<BackendKind>(9)),
               "unknown");
  BackendKind parsed;
  EXPECT_TRUE(backend::parse_backend("maxflow", &parsed));
  EXPECT_EQ(parsed, BackendKind::kMaxFlow);
  EXPECT_TRUE(backend::parse_backend("pdl", &parsed));
  EXPECT_EQ(parsed, BackendKind::kPdlDelay);
  EXPECT_FALSE(backend::parse_backend("PDL", &parsed));
  EXPECT_FALSE(backend::parse_backend("", &parsed));
}

// -------------------------------------------------- max-flow equivalence

TEST(Backend, MaxFlowDeviceMatchesDirectModelBitForBit) {
  // The backend wrapper must be the pre-backend serving path exactly:
  // same fabrication, same blob, same predictions to the last bit of the
  // flow doubles.
  PpufParams params;
  params.node_count = 12;
  params.grid_size = 4;
  constexpr std::uint64_t kSeed = 2025;

  const backend::PufBackend* mf = backend::find_backend(BackendKind::kMaxFlow);
  backend::FabricateRequest req;
  req.node_count = params.node_count;
  req.grid_size = params.grid_size;
  req.seed = kSeed;
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(mf->fabricate(req, nullptr, &blob).is_ok());

  // The blob is the canonical sim-model encoding of the directly
  // fabricated instance.
  MaxFlowPpuf puf(params, kSeed);
  SimulationModel direct(puf);
  Writer w;
  protocol::codec::encode_sim_model(w, direct);
  EXPECT_EQ(blob, w.bytes());
  ASSERT_TRUE(
      mf->validate_model(blob.data(), blob.size(), params.node_count,
                         params.grid_size)
          .is_ok());
  EXPECT_EQ(mf->validate_model(blob.data(), blob.size(),
                               params.node_count + 1, params.grid_size)
                .code(),
            StatusCode::kInvalidArgument);

  std::unique_ptr<backend::Device> dev;
  ASSERT_TRUE(mf->materialize(blob, {}, &dev).is_ok());
  EXPECT_EQ(dev->kind(), BackendKind::kMaxFlow);
  EXPECT_TRUE(dev->asymmetric_verify());

  util::Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    const Challenge c = random_challenge(direct.layout(), rng);
    const auto got = dev->predict(c, {});
    const auto want = direct.predict(c);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.bit, want.bit);
    EXPECT_EQ(got.flow_a, want.flow_a);
    EXPECT_EQ(got.flow_b, want.flow_b);
  }
}

// ------------------------------------------------- tagged record formats

registry::DeviceEntry pdl_entry(std::uint64_t id, std::uint64_t seed) {
  registry::DeviceEntry e;
  e.id = id;
  e.nodes = 16;
  e.grid = 2;
  e.label = "pdl";
  e.backend = BackendKind::kPdlDelay;
  backend::FabricateRequest req;
  req.node_count = e.nodes;
  req.grid_size = e.grid;
  req.seed = seed;
  EXPECT_TRUE(backend::find_backend(BackendKind::kPdlDelay)
                  ->fabricate(req, nullptr, &e.model_bytes)
                  .is_ok());
  return e;
}

TEST(Backend, UnknownBackendTagsInRecordsAreTypedErrors) {
  registry::WalRecord rec;
  rec.type = registry::WalRecord::Type::kEnrollTagged;
  rec.entry = pdl_entry(9, 77);
  Writer w;
  registry::encode_wal_record(w, rec);
  std::vector<std::uint8_t> body = w.bytes();
  // Body layout: u8 type | u8 backend | entry.  Forge the tag.
  ASSERT_GE(body.size(), 2u);
  body[1] = 0x7f;
  {
    Reader r(body.data(), body.size());
    registry::WalRecord out;
    const Status s = registry::decode_wal_record(r, &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  body[1] = 0;  // the reserved value is rejected too
  {
    Reader r(body.data(), body.size());
    registry::WalRecord out;
    EXPECT_EQ(registry::decode_wal_record(r, &out).code(),
              StatusCode::kInvalidArgument);
  }

  // Same for a v2 snapshot: each entry's leading tag byte must resolve.
  registry::SnapshotBody snap;
  snap.next_id = 10;
  snap.entries = {pdl_entry(9, 77)};
  Writer sw;
  registry::encode_snapshot_body(sw, snap, 2);
  std::vector<std::uint8_t> sbody = sw.bytes();
  // Snapshot body: u64 next_id | u32 count | (u8 tag | entry)*.
  ASSERT_GE(sbody.size(), 13u);
  sbody[12] = 0x7f;
  Reader r(sbody.data(), sbody.size());
  registry::SnapshotBody out;
  EXPECT_EQ(registry::decode_snapshot_body(r, &out, 2).code(),
            StatusCode::kInvalidArgument);

  // And the registry refuses to enroll a kind it cannot resolve.
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("backend_unknown_enroll")).is_ok());
  registry::EnrollRequest enroll;
  enroll.node_count = 8;
  enroll.grid_size = 2;
  enroll.seed = 1;
  enroll.backend = static_cast<BackendKind>(0x7f);
  std::uint64_t id = 0;
  EXPECT_EQ(reg.enroll(enroll, &id).code(), StatusCode::kInvalidArgument);
}

TEST(Backend, PreTagWalAndSnapshotRecoverAsMaxFlowBitForBit) {
  // Backward compatibility is byte-level: a max-flow-only fleet writes
  // the EXACT pre-tag formats (WAL type kEnroll, snapshot magic
  // "ppufreg1"), and recovery from those bytes serves predictions
  // bit-identical to direct fabrication — the same invariant the golden
  // corpus pins for the underlying model.
  PpufParams params;
  params.node_count = 10;
  params.grid_size = 4;
  constexpr std::uint64_t kSeed = 4242;
  const std::string dir = fresh_dir("backend_pretag");
  std::uint64_t id = 0;
  {
    registry::DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    registry::EnrollRequest req;
    req.node_count = params.node_count;
    req.grid_size = params.grid_size;
    req.seed = kSeed;
    req.label = "legacy";
    ASSERT_TRUE(reg.enroll(req, &id).is_ok());

    // The WAL record on disk is the untagged kEnroll form.
    const std::vector<std::uint8_t> wal = read_file(dir + "/wal.log");
    std::size_t consumed = 0;
    std::vector<std::uint8_t> body;
    std::string error;
    ASSERT_EQ(registry::extract_record(wal.data(), wal.size(), &consumed,
                                       &body, &error),
              registry::ExtractStatus::kOk)
        << error;
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body[0],
              static_cast<std::uint8_t>(registry::WalRecord::Type::kEnroll));

    // Compaction writes the v1 snapshot image.
    ASSERT_TRUE(reg.compact().is_ok());
    const std::vector<std::uint8_t> snap = read_file(dir + "/snapshot.bin");
    ASSERT_GE(snap.size(), 8u);
    EXPECT_EQ(std::string(snap.begin(), snap.begin() + 8), "ppufreg1");
  }

  // Cold recovery from those pre-tag bytes: the device comes back as
  // max-flow and predicts bit-identically to direct fabrication.
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  ASSERT_EQ(reg.device_count(), 1u);
  const auto listing = reg.list();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].backend, BackendKind::kMaxFlow);

  registry::HydrationCache cache(reg, {});
  std::shared_ptr<const registry::HydratedDevice> dev;
  ASSERT_TRUE(cache.get(id, &dev).is_ok());
  EXPECT_EQ(dev->device->kind(), BackendKind::kMaxFlow);

  MaxFlowPpuf puf(params, kSeed);
  SimulationModel direct(puf);
  util::Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    const Challenge c = random_challenge(direct.layout(), rng);
    const auto got = dev->device->predict(c, {});
    const auto want = direct.predict(c);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.bit, want.bit);
    EXPECT_EQ(got.flow_a, want.flow_a);
    EXPECT_EQ(got.flow_b, want.flow_b);
  }
}

TEST(Backend, MixedFleetSnapshotUsesV2AndRecoversBothKinds) {
  const std::string dir = fresh_dir("backend_mixed_snapshot");
  std::uint64_t mf_id = 0, pdl_id = 0;
  {
    registry::DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    registry::EnrollRequest mf;
    mf.node_count = 8;
    mf.grid_size = 3;
    mf.seed = 11;
    mf.label = "mf";
    ASSERT_TRUE(reg.enroll(mf, &mf_id).is_ok());
    registry::EnrollRequest pdl;
    pdl.backend = BackendKind::kPdlDelay;
    pdl.node_count = 16;  // stages
    pdl.grid_size = 2;    // instances
    pdl.seed = 12;
    pdl.label = "pdl";
    ASSERT_TRUE(reg.enroll(pdl, &pdl_id).is_ok());
    ASSERT_TRUE(reg.compact().is_ok());
    const std::vector<std::uint8_t> snap = read_file(dir + "/snapshot.bin");
    ASSERT_GE(snap.size(), 8u);
    EXPECT_EQ(std::string(snap.begin(), snap.begin() + 8), "ppufreg2");
  }
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  ASSERT_EQ(reg.device_count(), 2u);
  for (const auto& info : reg.list()) {
    EXPECT_EQ(info.backend, info.id == mf_id ? BackendKind::kMaxFlow
                                             : BackendKind::kPdlDelay);
  }
  // load_model stays a max-flow-only API with a typed refusal; the
  // backend-agnostic path is load_entry.
  SimulationModel model;
  EXPECT_TRUE(reg.load_model(mf_id, &model).is_ok());
  EXPECT_EQ(reg.load_model(pdl_id, &model).code(),
            StatusCode::kInvalidArgument);
  BackendKind kind;
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(reg.load_entry(pdl_id, &kind, &blob).is_ok());
  EXPECT_EQ(kind, BackendKind::kPdlDelay);
  EXPECT_TRUE(backend::find_backend(kind)
                  ->validate_model(blob.data(), blob.size(), 16, 2)
                  .is_ok());

  // Both kinds hydrate side by side through the same cache.
  registry::HydrationCache cache(reg, {});
  std::shared_ptr<const registry::HydratedDevice> mf_dev, pdl_dev;
  ASSERT_TRUE(cache.get(mf_id, &mf_dev).is_ok());
  ASSERT_TRUE(cache.get(pdl_id, &pdl_dev).is_ok());
  EXPECT_EQ(mf_dev->device->kind(), BackendKind::kMaxFlow);
  EXPECT_EQ(pdl_dev->device->kind(), BackendKind::kPdlDelay);
  EXPECT_TRUE(mf_dev->device->asymmetric_verify());
  EXPECT_FALSE(pdl_dev->device->asymmetric_verify());
}

// ------------------------------------------------------- PDL delay PUF

TEST(PdlDelay, FabricationIsDeterministicAndRoundTrips) {
  const backend::PufBackend* pdl =
      backend::find_backend(BackendKind::kPdlDelay);
  backend::FabricateRequest req;
  req.node_count = 24;  // stages
  req.grid_size = 3;    // XORed instances
  req.seed = 99;
  std::vector<std::uint8_t> blob, blob2;
  ASSERT_TRUE(pdl->fabricate(req, nullptr, &blob).is_ok());
  ASSERT_TRUE(pdl->fabricate(req, nullptr, &blob2).is_ok());
  EXPECT_EQ(blob, blob2);  // the seed is the whole fabrication story
  ASSERT_TRUE(pdl->validate_model(blob.data(), blob.size(), 24, 3).is_ok());
  EXPECT_EQ(pdl->validate_model(blob.data(), blob.size(), 24, 4).code(),
            StatusCode::kInvalidArgument);

  std::unique_ptr<backend::Device> dev;
  ASSERT_TRUE(pdl->materialize(blob, {}, &dev).is_ok());
  EXPECT_EQ(dev->kind(), BackendKind::kPdlDelay);
  EXPECT_FALSE(dev->asymmetric_verify());

  // The device's answers are the XOR of the re-fabricated instances —
  // the shared helper the holder side (ppuf_tool auth) uses.
  const std::vector<puf::ArbiterPuf> silicon =
      backend::fabricate_pdl_instances(24, 3, 99);
  util::Rng rng(1);
  for (int i = 0; i < 32; ++i) {
    const Challenge c = dev->issue_challenge(rng);
    ASSERT_TRUE(dev->validate_challenge(c).is_ok());
    const auto p = dev->predict(c, {});
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.bit, backend::pdl_response(silicon, c.bits));
    EXPECT_EQ(p.flow_a, silicon[0].margin(c.bits));
  }

  // Challenge validation is typed: wrong terminals, wrong bit count,
  // non-binary bits.
  Challenge bad;
  bad.source = 2;
  bad.sink = 1;
  bad.bits.assign(24, 0);
  EXPECT_EQ(dev->validate_challenge(bad).code(),
            StatusCode::kInvalidArgument);
  bad.source = 0;
  bad.bits.assign(23, 0);
  EXPECT_EQ(dev->validate_challenge(bad).code(),
            StatusCode::kInvalidArgument);
  bad.bits.assign(24, 2);
  EXPECT_EQ(dev->validate_challenge(bad).code(),
            StatusCode::kInvalidArgument);
}

TEST(PdlDelay, BlobTruncationAndForgeryStayTypedErrors) {
  const backend::PufBackend* pdl =
      backend::find_backend(BackendKind::kPdlDelay);
  backend::FabricateRequest req;
  req.node_count = 8;
  req.grid_size = 2;
  req.seed = 5;
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(pdl->fabricate(req, nullptr, &blob).is_ok());

  // Every strict prefix is a typed error — weights are fixed-width, so
  // there is no legal shorter form.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_EQ(pdl->validate_model(blob.data(), len, 8, 2).code(),
              StatusCode::kInvalidArgument)
        << "prefix " << len;
  }
  // Trailing surplus is corruption too.
  std::vector<std::uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_EQ(pdl->validate_model(padded.data(), padded.size(), 8, 2).code(),
            StatusCode::kInvalidArgument);

  // A forged header demanding a huge allocation dies on the geometry
  // bounds before any weight is read.
  std::vector<std::uint8_t> forged = blob;
  forged[0] = 0xff;
  forged[1] = 0xff;
  forged[2] = 0xff;
  forged[3] = 0x7f;
  EXPECT_EQ(pdl->validate_model(forged.data(), forged.size(), 8, 2).code(),
            StatusCode::kInvalidArgument);

  // materialize() wraps decode failures as kInternal: a blob that passed
  // record validation but fails here means the store itself broke.
  std::unique_ptr<backend::Device> dev;
  EXPECT_EQ(pdl->materialize(padded, {}, &dev).code(),
            StatusCode::kInternal);
}

TEST(PdlDelay, ChainedAuthAcceptsHolderRejectsImpostorAndLateness) {
  const backend::PufBackend* pdl =
      backend::find_backend(BackendKind::kPdlDelay);
  backend::FabricateRequest req;
  req.node_count = 24;
  req.grid_size = 2;
  req.seed = 31;
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(pdl->fabricate(req, nullptr, &blob).is_ok());
  backend::MaterializeOptions mopts;
  mopts.verifier_deadline_seconds = 1.0;
  std::unique_ptr<backend::Device> dev;
  ASSERT_TRUE(pdl->materialize(blob, mopts, &dev).is_ok());

  util::Rng rng(2);
  const Challenge first = dev->issue_challenge(rng);
  constexpr std::size_t kChain = 4;
  constexpr std::uint64_t kNonce = 0xabcdef;

  const std::vector<puf::ArbiterPuf> holder =
      backend::fabricate_pdl_instances(24, 2, 31);
  const protocol::ChainedReport honest =
      backend::prove_chain_with_pdl(holder, first, kChain, kNonce, 1e-6);
  util::Rng spot(9);
  auto verdict = dev->verify_chain(first, kChain, kNonce, honest,
                                   /*spot_checks=*/2, spot);
  EXPECT_TRUE(verdict.accepted) << verdict.detail;

  // An impostor device (different fabrication seed) diverges on margins.
  const std::vector<puf::ArbiterPuf> impostor =
      backend::fabricate_pdl_instances(24, 2, 32);
  const protocol::ChainedReport forged =
      backend::prove_chain_with_pdl(impostor, first, kChain, kNonce, 1e-6);
  verdict = dev->verify_chain(first, kChain, kNonce, forged, 2, spot);
  EXPECT_FALSE(verdict.accepted);

  // A delay PUF has NO time asymmetry, but lateness is still lateness.
  protocol::ChainedReport late = honest;
  late.elapsed_seconds = static_cast<double>(kChain) * 10.0;
  verdict = dev->verify_chain(first, kChain, kNonce, late, 2, spot);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_FALSE(verdict.in_time);
}

TEST(PdlDelay, BatchPredictHonoursPerItemDeadlines) {
  const backend::PufBackend* pdl =
      backend::find_backend(BackendKind::kPdlDelay);
  backend::FabricateRequest req;
  req.node_count = 16;
  req.grid_size = 1;
  req.seed = 13;
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(pdl->fabricate(req, nullptr, &blob).is_ok());
  std::unique_ptr<backend::Device> dev;
  ASSERT_TRUE(pdl->materialize(blob, {}, &dev).is_ok());

  util::Rng rng(4);
  std::vector<Challenge> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(dev->issue_challenge(rng));
  SimulationModel::PredictBatchOptions options;
  options.deadlines.assign(batch.size(), util::Deadline());
  options.deadlines[2] = util::Deadline::after_seconds(0.0);  // expired
  const auto out = dev->predict_batch(batch, options);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(out[i].status.code(), StatusCode::kDeadlineExceeded);
    } else {
      EXPECT_TRUE(out[i].ok()) << i;
    }
  }
  // A mismatched deadlines vector is a caller bug, not data.
  options.deadlines.assign(batch.size() + 1, util::Deadline());
  EXPECT_THROW(dev->predict_batch(batch, options), std::invalid_argument);
}

// ------------------------------------------------ Fig. 10 over the wire
//
// The paper's comparison, run against the real serving stack: train the
// attack suite (LS-SVM, SMO, KNN — the harness reports the minimum
// error) on CRPs observed through AuthClient.predict for one device of
// each backend.  The PDL device is cloned to >95% accuracy from a few
// hundred CRPs; the max-flow device resists at the same budget.

TEST(PdlDelay, LearnableOverTheWireWhereMaxFlowResists) {
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("backend_fig10")).is_ok());

  constexpr std::size_t kStages = 24;
  registry::EnrollRequest pdl_req;
  pdl_req.backend = BackendKind::kPdlDelay;
  pdl_req.node_count = kStages;
  pdl_req.grid_size = 1;  // single chain: the classic Fig. 10 baseline
  pdl_req.seed = 606;
  pdl_req.label = "fig10-pdl";
  std::uint64_t pdl_id = 0;
  ASSERT_TRUE(reg.enroll(pdl_req, &pdl_id).is_ok());

  PpufParams mf_params;
  mf_params.node_count = 10;
  mf_params.grid_size = 8;  // 64 type-B bits, like the paper's instance
  registry::EnrollRequest mf_req;
  mf_req.node_count = mf_params.node_count;
  mf_req.grid_size = mf_params.grid_size;
  mf_req.seed = 707;
  mf_req.label = "fig10-mf";
  std::uint64_t mf_id = 0;
  ASSERT_TRUE(reg.enroll(mf_req, &mf_id).is_ok());

  server::AuthServerOptions options;
  options.threads = 2;
  server::AuthServer srv(reg, options);
  ASSERT_TRUE(srv.start().is_ok());

  util::Rng rng(17);

  // --- PDL leg: CRPs over the wire, parity features (shared with the
  // backend via ArbiterPuf::parity_features — the strongest known
  // attack representation).
  {
    net::ClientOptions copt;
    copt.device_id = pdl_id;
    net::AuthClient client("127.0.0.1", srv.port(), copt);
    std::vector<std::vector<double>> feats;
    std::vector<int> responses;
    for (int i = 0; i < 720; ++i) {
      Challenge c;
      c.source = 0;
      c.sink = 1;
      c.bits.resize(kStages);
      for (std::uint8_t& b : c.bits) b = rng.coin() ? 1 : 0;
      SimulationModel::Prediction p;
      ASSERT_TRUE(client.predict(c, &p).is_ok());
      feats.push_back(puf::ArbiterPuf::parity_features(c.bits));
      responses.push_back(p.bit);
    }
    attack::Dataset all =
        attack::from_features(std::move(feats), std::move(responses));
    const attack::Dataset train = all.slice(0, 600);
    const attack::Dataset test = all.slice(600, 120);
    const auto curve =
        attack::attack_learning_curve(train, test, {100, 600});
    ASSERT_EQ(curve.size(), 2u);
    // >95% prediction accuracy with a modest CRP budget.
    EXPECT_LT(curve[1].best(), 0.05)
        << "lssvm=" << curve[1].lssvm_rbf << " smo=" << curve[1].smo_rbf
        << " knn=" << curve[1].knn;
  }

  // --- Max-flow leg: same attack suite, same observation channel, a
  // comparable budget — every attacker stays far from the PDL error.
  {
    net::ClientOptions copt;
    copt.device_id = mf_id;
    net::AuthClient client("127.0.0.1", srv.port(), copt);
    const CrossbarLayout layout(mf_params.node_count, mf_params.grid_size);
    std::vector<std::vector<std::uint8_t>> challenges;
    std::vector<int> responses;
    for (int i = 0; i < 260; ++i) {
      const Challenge c = random_challenge_fixed_ends(layout, 0, 5, rng);
      SimulationModel::Prediction p;
      ASSERT_TRUE(client.predict(c, &p).is_ok());
      challenges.push_back(
          std::vector<std::uint8_t>(c.bits.begin(), c.bits.end()));
      responses.push_back(p.bit);
    }
    const attack::Dataset all = attack::encode_bits(challenges, responses);
    const attack::Dataset train = all.slice(0, 200);
    const attack::Dataset test = all.slice(200, 60);
    const auto curve = attack::attack_learning_curve(train, test, {200});
    ASSERT_EQ(curve.size(), 1u);
    EXPECT_GT(curve[0].best(), 0.05);
  }
  srv.stop();
}

}  // namespace
}  // namespace ppuf
