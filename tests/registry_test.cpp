// DeviceRegistry + HydrationCache tests: durability, crash recovery,
// compaction, and multi-tenant hydration.
//
// The recovery tests are the contract that matters for a persistent
// store: a process killed mid-append loses at most the record being
// written (torn tail -> truncated, committed devices intact), while a
// complete-but-wrong record (bit rot, tampering) is a typed error, never
// a silently vanished device.  The kill is injected deterministically via
// util::FaultHooks, so every torn-write length is reproducible.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/codec.hpp"
#include "registry/device_registry.hpp"
#include "registry/hydration_cache.hpp"
#include "registry/record.hpp"
#include "testing/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "test_dirs.hpp"

namespace ppuf {
namespace {

using test::fresh_dir;

namespace fs = std::filesystem;
using registry::DeviceRegistry;
using registry::EnrollRequest;
using registry::HydrationCache;
using util::Status;
using util::StatusCode;

/// Small, fast geometry for enrollment-heavy tests.
EnrollRequest small_request(std::uint64_t seed,
                            const std::string& label = "") {
  EnrollRequest req;
  req.node_count = 6;
  req.grid_size = 3;
  req.seed = seed;
  req.label = label;
  return req;
}

TEST(DeviceRegistry, EnrollAssignsSequentialIdsAndPersists) {
  const std::string dir = fresh_dir("enroll_persist");
  std::uint64_t id_a = 0, id_b = 0;
  {
    DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    ASSERT_TRUE(reg.enroll(small_request(101, "card-A"), &id_a).is_ok());
    ASSERT_TRUE(reg.enroll(small_request(102, "card-B"), &id_b).is_ok());
    EXPECT_EQ(id_a, 1u);
    EXPECT_EQ(id_b, 2u);
  }
  // Reopen from disk: both devices, same ids, same metadata.
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  EXPECT_EQ(reg.device_count(), 2u);
  const auto devices = reg.list();
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_EQ(devices[0].id, id_a);
  EXPECT_EQ(devices[0].nodes, 6u);
  EXPECT_EQ(devices[0].grid, 3u);
  EXPECT_EQ(devices[0].label, "card-A");
  EXPECT_FALSE(devices[0].revoked);
  EXPECT_EQ(devices[1].label, "card-B");
  EXPECT_EQ(reg.recovery_stats().wal_records, 2u);
}

TEST(DeviceRegistry, StoredModelMatchesFabricatedSilicon) {
  // The enrolled model must be byte-faithful: predictions from the
  // registry's copy equal predictions from a model derived directly from
  // the same fabrication seed.
  const std::string dir = fresh_dir("model_fidelity");
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  std::uint64_t id = 0;
  ASSERT_TRUE(reg.enroll(small_request(777), &id).is_ok());

  SimulationModel stored;
  ASSERT_TRUE(reg.load_model(id, &stored).is_ok());

  PpufParams params;
  params.node_count = 6;
  params.grid_size = 3;
  MaxFlowPpuf fabricated(params, 777);
  const SimulationModel direct(fabricated);
  ASSERT_EQ(stored.layout().node_count(), direct.layout().node_count());
  EXPECT_EQ(stored.comparator_offset(), direct.comparator_offset());

  util::Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    const Challenge c = random_challenge(direct.layout(), rng);
    const auto p_stored = stored.predict(c);
    const auto p_direct = direct.predict(c);
    ASSERT_TRUE(p_stored.ok());
    EXPECT_EQ(p_stored.bit, p_direct.bit);
    EXPECT_EQ(p_stored.flow_a, p_direct.flow_a);
    EXPECT_EQ(p_stored.flow_b, p_direct.flow_b);
  }
}

TEST(DeviceRegistry, RevokeIsTypedIdempotentAndPersistent) {
  const std::string dir = fresh_dir("revoke");
  std::uint64_t id = 0;
  {
    DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    ASSERT_TRUE(reg.enroll(small_request(1), &id).is_ok());
    EXPECT_EQ(reg.revoke(99).code(), StatusCode::kNotFound);
    ASSERT_TRUE(reg.revoke(id).is_ok());
    ASSERT_TRUE(reg.revoke(id).is_ok());  // idempotent
    EXPECT_TRUE(reg.contains(id));
    EXPECT_FALSE(reg.active(id));
  }
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  EXPECT_FALSE(reg.active(id));
  // Revocation is a serving policy: the published model still loads.
  SimulationModel model;
  EXPECT_TRUE(reg.load_model(id, &model).is_ok());
  // Ids are never reused, even after revocation.
  std::uint64_t next = 0;
  ASSERT_TRUE(reg.enroll(small_request(2), &next).is_ok());
  EXPECT_EQ(next, id + 1);
}

TEST(DeviceRegistry, TornTailWriteIsTruncatedAndCommittedStateSurvives) {
  // Kill the process (simulated) at several points inside the appended
  // record: every prefix length must recover to "device 1 intact, the
  // torn enrollment gone", and re-enrollment must reuse nothing.
  for (const int torn_bytes : {0, 1, 7, 12, 40, 200}) {
    const std::string dir =
        fresh_dir("torn_" + std::to_string(torn_bytes));
    std::uint64_t id1 = 0;
    {
      DeviceRegistry reg;
      ASSERT_TRUE(reg.open(dir).is_ok());
      ASSERT_TRUE(reg.enroll(small_request(11), &id1).is_ok());
      testing::FaultSpec spec;
      spec.registry_torn_write_bytes = torn_bytes;
      const testing::ScopedFaultInjection fault(spec);
      std::uint64_t id2 = 0;
      const Status s = reg.enroll(small_request(12), &id2);
      ASSERT_FALSE(s.is_ok()) << "torn write must surface as an error";
    }
    DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok()) << "torn_bytes=" << torn_bytes;
    const auto rs = reg.recovery_stats();
    EXPECT_EQ(rs.truncated_tail_bytes, static_cast<std::size_t>(torn_bytes))
        << "torn_bytes=" << torn_bytes;
    EXPECT_EQ(reg.device_count(), 1u);
    EXPECT_TRUE(reg.active(id1));
    SimulationModel model;
    EXPECT_TRUE(reg.load_model(id1, &model).is_ok());
    // The torn enrollment never committed, so its id is free to assign.
    std::uint64_t id2 = 0;
    ASSERT_TRUE(reg.enroll(small_request(12), &id2).is_ok());
    EXPECT_EQ(id2, id1 + 1);
  }
}

TEST(DeviceRegistry, CorruptWalRecordIsTypedErrorNotSilentLoss) {
  const std::string dir = fresh_dir("corrupt_wal");
  {
    DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    std::uint64_t id = 0;
    ASSERT_TRUE(reg.enroll(small_request(21), &id).is_ok());
    ASSERT_TRUE(reg.enroll(small_request(22), &id).is_ok());
  }
  // Flip one byte in the middle of the FIRST record: a complete record
  // that fails its CRC is corruption, not a torn tail.
  const std::string wal = dir + "/wal.log";
  std::fstream f(wal, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(40);
  char byte = 0;
  f.seekg(40);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x20);
  f.seekp(40);
  f.write(&byte, 1);
  f.close();

  DeviceRegistry reg;
  const Status s = reg.open(dir);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(reg.is_open());
}

TEST(DeviceRegistry, CorruptSnapshotIsTypedError) {
  const std::string dir = fresh_dir("corrupt_snapshot");
  {
    DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    std::uint64_t id = 0;
    ASSERT_TRUE(reg.enroll(small_request(31), &id).is_ok());
    ASSERT_TRUE(reg.compact().is_ok());
  }
  const std::string snap = dir + "/snapshot.bin";
  ASSERT_TRUE(fs::exists(snap));
  std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  char byte = 0;
  f.seekg(30);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(30);
  f.write(&byte, 1);
  f.close();

  DeviceRegistry reg;
  EXPECT_EQ(reg.open(dir).code(), StatusCode::kInvalidArgument);
}

TEST(DeviceRegistry, CompactionFoldsWalAndPreservesState) {
  const std::string dir = fresh_dir("compact");
  std::uint64_t id1 = 0, id2 = 0, id3 = 0;
  {
    DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    ASSERT_TRUE(reg.enroll(small_request(41, "a"), &id1).is_ok());
    ASSERT_TRUE(reg.enroll(small_request(42, "b"), &id2).is_ok());
    ASSERT_TRUE(reg.enroll(small_request(43, "c"), &id3).is_ok());
    ASSERT_TRUE(reg.revoke(id2).is_ok());
    ASSERT_TRUE(reg.compact().is_ok());
  }
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), 0u);
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  const auto rs = reg.recovery_stats();
  EXPECT_EQ(rs.snapshot_entries, 3u);
  EXPECT_EQ(rs.wal_records, 0u);
  EXPECT_EQ(reg.device_count(), 3u);
  EXPECT_TRUE(reg.active(id1));
  EXPECT_FALSE(reg.active(id2));
  EXPECT_TRUE(reg.active(id3));
  // next_id survives the fold: no id reuse after compaction.
  std::uint64_t id4 = 0;
  ASSERT_TRUE(reg.enroll(small_request(44), &id4).is_ok());
  EXPECT_EQ(id4, id3 + 1);
}

TEST(DeviceRegistry, AutoCompactionBoundsTheWal) {
  const std::string dir = fresh_dir("auto_compact");
  DeviceRegistry::Options options;
  options.auto_compact_records = 2;
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir, options).is_ok());
  std::uint64_t id = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    ASSERT_TRUE(reg.enroll(small_request(seed), &id).is_ok());
  // Five appends with a two-record bound: the WAL can hold at most one
  // yet-unfolded record, the rest live in the snapshot.
  ASSERT_TRUE(fs::exists(dir + "/snapshot.bin"));
  const auto model_size = fs::file_size(dir + "/snapshot.bin");
  EXPECT_LT(fs::file_size(dir + "/wal.log"), model_size);

  DeviceRegistry reopened;
  ASSERT_TRUE(reopened.open(dir).is_ok());
  EXPECT_EQ(reopened.device_count(), 5u);
}

TEST(DeviceRegistry, WalAppendDiskFullIsTypedAndLeavesStateUnchanged) {
  const std::string dir = fresh_dir("disk_full");
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  std::uint64_t id1 = 0;
  ASSERT_TRUE(reg.enroll(small_request(71), &id1).is_ok());
  const auto wal_size = fs::file_size(dir + "/wal.log");
  {
    testing::FaultSpec spec;
    spec.registry_append_failures = 2;
    const testing::ScopedFaultInjection fault(spec);
    std::uint64_t id = 0;
    Status s = reg.enroll(small_request(72), &id);
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.to_string();
    s = reg.revoke(id1);
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.to_string();
    // Nothing moved: no device appeared, none was revoked, not a byte
    // reached the WAL.
    EXPECT_EQ(reg.device_count(), 1u);
    EXPECT_TRUE(reg.active(id1));
    EXPECT_EQ(fs::file_size(dir + "/wal.log"), wal_size);
  }
  // Fault cleared: the enrollment succeeds and the failed attempt did
  // not burn an id.
  std::uint64_t id2 = 0;
  ASSERT_TRUE(reg.enroll(small_request(72), &id2).is_ok());
  EXPECT_EQ(id2, id1 + 1);
  EXPECT_TRUE(reg.active(id2));
}

TEST(DeviceRegistry, AppendAfterTornWriteRollsBackPartialBytes) {
  // Regression: a torn append used to leave its partial bytes in the
  // WAL; the next successful append then wrote a complete record AFTER
  // the garbage, turning recovery's benign torn-tail case into hard
  // mid-file corruption — reopen refused and every committed device was
  // unreachable.
  const std::string dir = fresh_dir("torn_then_continue");
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  std::uint64_t id1 = 0;
  ASSERT_TRUE(reg.enroll(small_request(61), &id1).is_ok());
  {
    testing::FaultSpec spec;
    spec.registry_torn_write_bytes = 25;
    const testing::ScopedFaultInjection fault(spec);
    std::uint64_t torn_id = 0;
    ASSERT_FALSE(reg.enroll(small_request(62), &torn_id).is_ok());
  }
  std::uint64_t id2 = 0;
  ASSERT_TRUE(reg.enroll(small_request(63), &id2).is_ok());
  EXPECT_EQ(id2, id1 + 1);
  DeviceRegistry reopened;
  ASSERT_TRUE(reopened.open(dir).is_ok());
  EXPECT_EQ(reopened.device_count(), 2u);
  EXPECT_TRUE(reopened.active(id1));
  EXPECT_TRUE(reopened.active(id2));
  EXPECT_EQ(reopened.recovery_stats().truncated_tail_bytes, 0u);
}

TEST(DeviceRegistry, SnapshotFsyncFailureKeepsOldStateAndCleansTmp) {
  const std::string dir = fresh_dir("snapshot_fsync");
  std::uint64_t id1 = 0, id2 = 0;
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  ASSERT_TRUE(reg.enroll(small_request(81, "a"), &id1).is_ok());
  ASSERT_TRUE(reg.enroll(small_request(82, "b"), &id2).is_ok());
  {
    testing::FaultSpec spec;
    spec.registry_fsync_failures = 1;  // hits the snapshot .tmp fsync
    const testing::ScopedFaultInjection fault(spec);
    EXPECT_FALSE(reg.compact().is_ok());
  }
  // The failed compaction left the stale .tmp behind and the WAL
  // untouched; serving state is unaffected.
  EXPECT_TRUE(fs::exists(dir + "/snapshot.bin.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/snapshot.bin"));
  EXPECT_GT(fs::file_size(dir + "/wal.log"), 0u);
  EXPECT_EQ(reg.device_count(), 2u);

  // Recovery removes the stale .tmp and loses nothing.
  DeviceRegistry reopened;
  ASSERT_TRUE(reopened.open(dir).is_ok());
  EXPECT_FALSE(fs::exists(dir + "/snapshot.bin.tmp"));
  EXPECT_EQ(reopened.device_count(), 2u);
  EXPECT_TRUE(reopened.active(id1));
  EXPECT_TRUE(reopened.active(id2));
  // And with the fault gone, compaction completes.
  ASSERT_TRUE(reopened.compact().is_ok());
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), 0u);
  EXPECT_TRUE(fs::exists(dir + "/snapshot.bin"));
}

TEST(DeviceRegistry, SnapshotRenameFailureKeepsOldStateServing) {
  const std::string dir = fresh_dir("snapshot_rename");
  std::uint64_t id1 = 0;
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  ASSERT_TRUE(reg.enroll(small_request(91), &id1).is_ok());
  ASSERT_TRUE(reg.compact().is_ok());  // baseline snapshot
  std::uint64_t id2 = 0;
  ASSERT_TRUE(reg.enroll(small_request(92), &id2).is_ok());
  const auto old_snapshot_size = fs::file_size(dir + "/snapshot.bin");
  {
    testing::FaultSpec spec;
    spec.registry_rename_failures = 1;
    const testing::ScopedFaultInjection fault(spec);
    EXPECT_FALSE(reg.compact().is_ok());
  }
  // Old snapshot still in place, WAL still holds the second enrollment.
  EXPECT_EQ(fs::file_size(dir + "/snapshot.bin"), old_snapshot_size);
  EXPECT_GT(fs::file_size(dir + "/wal.log"), 0u);
  DeviceRegistry reopened;
  ASSERT_TRUE(reopened.open(dir).is_ok());
  EXPECT_EQ(reopened.device_count(), 2u);
  EXPECT_TRUE(reopened.active(id1));
  EXPECT_TRUE(reopened.active(id2));
}

/// Device ids of the WAL's enroll records, in file order.
std::vector<std::uint64_t> wal_enroll_ids(const std::string& dir) {
  std::ifstream in(dir + "/wal.log", std::ios::binary);
  const std::vector<std::uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                        {});
  std::vector<std::uint64_t> ids;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t used = 0;
    std::vector<std::uint8_t> body;
    std::string error;
    if (registry::extract_record(bytes.data() + offset,
                                 bytes.size() - offset, &used, &body,
                                 &error) != registry::ExtractStatus::kOk)
      break;
    protocol::codec::Reader r(body.data(), body.size());
    registry::WalRecord record;
    if (!registry::decode_wal_record(r, &record).is_ok()) break;
    if (record.type == registry::WalRecord::Type::kEnroll)
      ids.push_back(record.entry.id);
    offset += used;
  }
  return ids;
}

TEST(DeviceRegistry, ConcurrentEnrollsGetDistinctIdsInWalOrder) {
  const std::string dir = fresh_dir("concurrent_enroll");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2;
  {
    DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int k = 0; k < kPerThread; ++k) {
          const std::uint64_t seed = 500 + 10 * t + k;
          std::uint64_t id = 0;
          if (!reg.enroll(small_request(seed, std::to_string(seed)), &id)
                   .is_ok())
            failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(reg.stats().enrolls,
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }

  // Cold reopen: ids 1..8 with no gap, appended to the WAL in id order.
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  EXPECT_EQ(reg.recovery_stats().wal_records,
            static_cast<std::size_t>(kThreads * kPerThread));
  const std::vector<std::uint64_t> ids = wal_enroll_ids(dir);
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);

  // Each id holds the model of the seed its label names: no enroll
  // published another's fabrication.
  PpufParams params;
  params.node_count = 6;
  params.grid_size = 3;
  for (const registry::DeviceInfo& d : reg.list()) {
    MaxFlowPpuf chip(params, std::stoull(d.label));
    protocol::codec::Writer w;
    protocol::codec::encode_sim_model(w, SimulationModel(chip));
    backend::BackendKind kind{};
    std::vector<std::uint8_t> stored;
    ASSERT_TRUE(reg.load_entry(d.id, &kind, &stored).is_ok());
    EXPECT_EQ(stored, w.bytes()) << "device " << d.id;
  }
}

TEST(DeviceRegistry, RacingExplicitIdEnrollsExactlyOnce) {
  const std::string dir = fresh_dir("racing_explicit_id");
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  constexpr std::uint64_t kId = 42;
  Status results[2];
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      EnrollRequest req = small_request(900 + t, t == 0 ? "first" : "second");
      req.device_id = kId;
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      results[t] = reg.enroll(req, nullptr);
    });
  }
  for (auto& th : threads) th.join();
  const int winner = results[0].is_ok() ? 0 : 1;
  ASSERT_TRUE(results[winner].is_ok());
  const Status& loser = results[1 - winner];
  EXPECT_EQ(loser.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loser.message().find("already enrolled"), std::string::npos)
      << loser.message();
  ASSERT_EQ(reg.device_count(), 1u);
  EXPECT_EQ(reg.list()[0].label, winner == 0 ? "first" : "second");
  EXPECT_EQ(reg.stats().enrolls, 1u);
  EXPECT_EQ(wal_enroll_ids(dir), std::vector<std::uint64_t>{kId});
}

TEST(DeviceRegistry, ReadsDoNotWaitForFabrication) {
  const std::string dir = fresh_dir("reads_during_enroll");
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  std::uint64_t id = 0;
  ASSERT_TRUE(reg.enroll(small_request(61), &id).is_ok());

  // An n = 48 fabrication characterises 9024 blocks: long enough that a
  // read stuck behind it is unmistakable.
  std::atomic<bool> started{false}, done{false};
  std::chrono::steady_clock::duration enroll_time{};
  Status enrolled;
  std::thread enroller([&] {
    EnrollRequest big;
    big.node_count = 48;
    big.grid_size = 8;
    big.seed = 62;
    started.store(true);
    const auto t0 = std::chrono::steady_clock::now();
    enrolled = reg.enroll(big, nullptr);
    enroll_time = std::chrono::steady_clock::now() - t0;
    done.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto t0 = std::chrono::steady_clock::now();
  const bool active = reg.active(id);
  const bool contains = reg.contains(id);
  const auto read_time = std::chrono::steady_clock::now() - t0;
  const bool in_flight = !done.load();
  enroller.join();

  ASSERT_TRUE(enrolled.is_ok()) << enrolled.to_string();
  EXPECT_TRUE(active);
  EXPECT_TRUE(contains);
  EXPECT_TRUE(in_flight);
  // A read that waited out the fabrication takes nearly all of it.
  EXPECT_LT(read_time, enroll_time / 4)
      << "read " << std::chrono::duration<double>(read_time).count()
      << " s, enroll "
      << std::chrono::duration<double>(enroll_time).count() << " s";
  EXPECT_EQ(reg.device_count(), 2u);
}

TEST(DeviceRegistry, HundredThousandDevicesRecoverAndHydrateAWorkingSet) {
  // Every device shares one tiny model blob: the test is about recovery
  // and hydration at scale, and fabricating 100k devices would dominate.
  constexpr std::uint64_t kDevices = 100000;
  // The snapshot is one body bounded by kMaxBodyBytes, so the rest of the
  // registry arrives as individually framed WAL records to replay.
  constexpr std::uint64_t kSnapshotDevices = 40000;
  PpufParams tiny;
  tiny.node_count = 6;
  tiny.grid_size = 3;
  MaxFlowPpuf tiny_chip(tiny, 4242);
  protocol::codec::Writer blob;
  protocol::codec::encode_sim_model(blob, SimulationModel(tiny_chip));
  const std::vector<std::uint8_t> model_bytes = blob.take();
  const auto entry_for = [&](std::uint64_t id) {
    registry::DeviceEntry e;
    e.id = id;
    e.nodes = static_cast<std::uint32_t>(tiny.node_count);
    e.grid = static_cast<std::uint32_t>(tiny.grid_size);
    e.model_bytes = model_bytes;
    return e;
  };

  const std::string dir = fresh_dir("hundred_thousand");
  fs::create_directories(dir);
  {
    registry::SnapshotBody snap;
    snap.next_id = kSnapshotDevices + 1;
    snap.entries.reserve(kSnapshotDevices);
    for (std::uint64_t id = 1; id <= kSnapshotDevices; ++id)
      snap.entries.push_back(entry_for(id));
    const std::vector<std::uint8_t> image = registry::frame_snapshot(snap);
    std::ofstream out(dir + "/snapshot.bin", std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  {
    std::ofstream out(dir + "/wal.log", std::ios::binary);
    for (std::uint64_t id = kSnapshotDevices + 1; id <= kDevices; ++id) {
      registry::WalRecord rec;
      rec.type = registry::WalRecord::Type::kEnroll;
      rec.entry = entry_for(id);
      const std::vector<std::uint8_t> frame = registry::frame_record(rec);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
    }
  }

  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  EXPECT_EQ(reg.device_count(), kDevices);

  // A uniform working set spread over snapshot and WAL devices alike, far
  // larger than the cache: nearly every get is a cold load, none may fail.
  constexpr std::size_t kWorkingSet = 4096;
  constexpr std::size_t kGets = 20000;
  HydrationCache::Options options;
  options.max_entries = 64;
  HydrationCache cache(reg, options);
  util::Rng rng(77);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < kGets; ++i) {
    const auto slot = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kWorkingSet) - 1));
    std::shared_ptr<const registry::HydratedDevice> dev;
    if (!cache.get(1 + slot * (kDevices / kWorkingSet), &dev).is_ok())
      ++failed;
  }
  EXPECT_EQ(failed, 0u);
  const HydrationCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kGets);
  EXPECT_EQ(s.entries, 64u);
}

// ---------------------------------------------------------- hydration cache

TEST(HydrationCache, HitMissEvictionAndUnknown) {
  const std::string dir = fresh_dir("hydration_lru");
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  std::uint64_t ids[3] = {};
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(reg.enroll(small_request(60 + i), &ids[i]).is_ok());

  HydrationCache::Options options;
  options.max_entries = 2;
  HydrationCache cache(reg, options);

  std::shared_ptr<const registry::HydratedDevice> dev;
  EXPECT_EQ(cache.get(999, &dev).code(), StatusCode::kNotFound);

  ASSERT_TRUE(cache.get(ids[0], &dev).is_ok());  // cold load
  EXPECT_EQ(dev->id, ids[0]);
  SimulationModel published;
  ASSERT_TRUE(reg.load_model(ids[0], &published).is_ok());
  EXPECT_EQ(published.layout().node_count(), 6u);
  ASSERT_TRUE(cache.get(ids[0], &dev).is_ok());  // hit
  ASSERT_TRUE(cache.get(ids[1], &dev).is_ok());  // cold load
  ASSERT_TRUE(cache.get(ids[2], &dev).is_ok());  // cold load -> evicts [0]
  const HydrationCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);

  // The evicted device hydrates again on demand.
  ASSERT_TRUE(cache.get(ids[0], &dev).is_ok());
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(HydrationCache, RevocationEvictsCachedDevice) {
  const std::string dir = fresh_dir("hydration_revoke");
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  std::uint64_t id = 0;
  ASSERT_TRUE(reg.enroll(small_request(70), &id).is_ok());

  HydrationCache cache(reg, {});
  std::shared_ptr<const registry::HydratedDevice> dev;
  ASSERT_TRUE(cache.get(id, &dev).is_ok());
  // A holder keeps its materialised instance alive across revocation...
  ASSERT_TRUE(reg.revoke(id).is_ok());
  EXPECT_EQ(dev->id, id);
  // ...but no new request may resolve the device.
  std::shared_ptr<const registry::HydratedDevice> dev2;
  EXPECT_EQ(cache.get(id, &dev2).code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().entries, 0u);  // evicted on the refused get
}

TEST(HydrationCache, SingleFlightLoadsOnceUnderConcurrency) {
  const std::string dir = fresh_dir("hydration_single_flight");
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  std::uint64_t id = 0;
  ASSERT_TRUE(reg.enroll(small_request(80), &id).is_ok());

  HydrationCache cache(reg, {});
  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::shared_ptr<const registry::HydratedDevice> dev;
      if (cache.get(id, &dev).is_ok() && dev->id == id)
        ok.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads);
  const HydrationCache::Stats s = cache.stats();
  // Single-flight: exactly one cold load ever happens; every other
  // request either joined that load or hit the cache afterwards.
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits + s.single_flight_waits,
            static_cast<std::uint64_t>(kThreads) - 1);
  EXPECT_EQ(s.entries, 1u);
}


// --- liveness generation ----------------------------------------------------

TEST(DeviceRegistry, LivenessGenerationMovesOnlyWhenADeviceCanStopBeingActive) {
  DeviceRegistry primary;
  ASSERT_TRUE(primary.open(fresh_dir("liveness_primary")).is_ok());
  std::uint64_t g = primary.liveness_generation();
  std::uint64_t a = 0, b = 0;
  ASSERT_TRUE(primary.enroll(small_request(90), &a).is_ok());
  ASSERT_TRUE(primary.enroll(small_request(91), &b).is_ok());
  EXPECT_EQ(primary.liveness_generation(), g) << "enroll bumped";
  ASSERT_TRUE(primary.compact().is_ok());
  EXPECT_EQ(primary.liveness_generation(), g) << "compaction bumped";

  ASSERT_TRUE(primary.revoke(a).is_ok());
  EXPECT_GT(primary.liveness_generation(), g) << "revoke did not bump";
  g = primary.liveness_generation();
  ASSERT_TRUE(primary.revoke(a).is_ok());  // idempotent: nothing changed
  EXPECT_EQ(primary.liveness_generation(), g);

  // A standby: install_bootstrap replaces the device set, a replicated
  // revoke record retires a device, a replicated enroll does neither.
  std::vector<std::uint8_t> image;
  DeviceRegistry::WalPosition pos;
  ASSERT_TRUE(primary.export_bootstrap(&image, &pos).is_ok());
  DeviceRegistry standby;
  ASSERT_TRUE(standby.open(fresh_dir("liveness_standby")).is_ok());
  std::uint64_t sg = standby.liveness_generation();
  ASSERT_TRUE(standby.install_bootstrap(image).is_ok());
  EXPECT_GT(standby.liveness_generation(), sg) << "bootstrap did not bump";
  EXPECT_EQ(standby.device_count(), 2u);

  const auto ship = [&] {
    std::vector<std::uint8_t> segment;
    bool stale = true;
    ASSERT_TRUE(primary
                    .read_wal_segment(pos.epoch, pos.offset, 1u << 20,
                                      &segment, &stale)
                    .is_ok());
    ASSERT_FALSE(stale);
    std::size_t consumed = 0;
    ASSERT_TRUE(
        standby.apply_wal_bytes(segment.data(), segment.size(), &consumed)
            .is_ok());
    ASSERT_EQ(consumed, segment.size());
    pos.offset += segment.size();
  };
  std::uint64_t c = 0;
  ASSERT_TRUE(primary.enroll(small_request(92), &c).is_ok());
  sg = standby.liveness_generation();
  ship();
  EXPECT_TRUE(standby.active(c));
  EXPECT_EQ(standby.liveness_generation(), sg) << "replicated enroll bumped";
  ASSERT_TRUE(primary.revoke(b).is_ok());
  ship();
  EXPECT_FALSE(standby.active(b));
  EXPECT_GT(standby.liveness_generation(), sg)
      << "replicated revoke did not bump";
}

TEST(DeviceRegistry, DeviceCountAndWalPositionArePublishedOnEveryMutation) {
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("published_position")).is_ok());
  EXPECT_EQ(reg.device_count(), 0u);
  const DeviceRegistry::WalPosition opened = reg.wal_position();
  EXPECT_NE(opened.epoch, 0u);
  EXPECT_EQ(opened.offset, 0u);
  std::uint64_t id = 0;
  ASSERT_TRUE(reg.enroll(small_request(93), &id).is_ok());
  EXPECT_EQ(reg.device_count(), 1u);
  const DeviceRegistry::WalPosition enrolled = reg.wal_position();
  EXPECT_EQ(enrolled.epoch, opened.epoch);
  EXPECT_GT(enrolled.offset, 0u);
  ASSERT_TRUE(reg.revoke(id).is_ok());
  EXPECT_GT(reg.wal_position().offset, enrolled.offset);
  ASSERT_TRUE(reg.compact().is_ok());
  const DeviceRegistry::WalPosition compacted = reg.wal_position();
  EXPECT_NE(compacted.epoch, opened.epoch);
  EXPECT_EQ(compacted.offset, 0u);
  EXPECT_EQ(reg.device_count(), 1u);  // revoked devices are still listed
}

TEST(HydrationCache, PeekServesOnlyResidentDevicesAtTheCurrentGeneration) {
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("hydration_peek")).is_ok());
  std::uint64_t a = 0, b = 0;
  ASSERT_TRUE(reg.enroll(small_request(94), &a).is_ok());
  ASSERT_TRUE(reg.enroll(small_request(95), &b).is_ok());
  HydrationCache cache(reg, {});

  EXPECT_EQ(cache.peek(a), nullptr);  // never loads
  EXPECT_EQ(cache.stats().misses, 0u);
  std::shared_ptr<const registry::HydratedDevice> dev;
  ASSERT_TRUE(cache.get(a, &dev).is_ok());
  ASSERT_NE(cache.peek(a), nullptr);
  EXPECT_EQ(cache.peek(a)->id, a);

  // An enroll leaves resident entries current.
  std::uint64_t c = 0;
  ASSERT_TRUE(reg.enroll(small_request(96), &c).is_ok());
  EXPECT_NE(cache.peek(a), nullptr);

  // A revoke of ANOTHER device makes every entry stale for peek; get()
  // re-checks the registry and re-stamps the entry.
  ASSERT_TRUE(reg.revoke(b).is_ok());
  EXPECT_EQ(cache.peek(a), nullptr);
  ASSERT_TRUE(cache.get(a, &dev).is_ok());
  EXPECT_NE(cache.peek(a), nullptr);

  // A revoked device is never peeked, resident or not.
  ASSERT_TRUE(reg.revoke(a).is_ok());
  EXPECT_EQ(cache.peek(a), nullptr);
  EXPECT_EQ(cache.get(a, &dev).code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.peek(a), nullptr);
}

TEST(HydrationCache, ConcurrentPeeksAndGetsNeverServeARevokedDevice) {
  DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("hydration_peek_race")).is_ok());
  constexpr int kDevices = 4;
  std::uint64_t ids[kDevices] = {};
  for (int i = 0; i < kDevices; ++i)
    ASSERT_TRUE(reg.enroll(small_request(100 + i), &ids[i]).is_ok());
  HydrationCache cache(reg, {});
  std::atomic<bool> stop{false};
  std::atomic<int> served_after_revoke{0};
  std::atomic<bool> revoked[kDevices] = {};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::shared_ptr<const registry::HydratedDevice> dev;
      for (int n = 0; !stop.load(); ++n) {
        const int i = (n + t) % kDevices;
        // Sampled before the read: a read that starts after the revoke
        // returned must refuse the device.
        const bool was_revoked = revoked[i].load();
        const bool ok = (n % 2 == 0) ? cache.peek(ids[i]) != nullptr
                                     : cache.get(ids[i], &dev).is_ok();
        if (ok && was_revoked) served_after_revoke.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < kDevices; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(reg.revoke(ids[i]).is_ok());
    revoked[i].store(true);
    std::uint64_t id = 0;
    ASSERT_TRUE(reg.enroll(small_request(110 + i), &id).is_ok());
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(served_after_revoke.load(), 0);
}

}  // namespace
}  // namespace ppuf
