// Property tests for the concurrent evaluation engine: worker count and
// cache state must never change WHAT a batch computes — only how fast.
// Every assertion here is bitwise (exact double equality), because "close
// enough" across thread counts is exactly the kind of symptom a data race
// produces.  The suite is sized to stay fast under ASan/UBSan/TSan, where
// it earns its keep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ppuf/ppuf.hpp"
#include "ppuf/response_cache.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ppuf {
namespace {

/// One shared instance/model for the whole suite: fabrication dominates
/// the runtime and the tests only read the published model.
class BatchConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PpufParams params;
    params.node_count = 8;
    params.grid_size = 4;
    puf_ = new MaxFlowPpuf(params, 424242);
    model_ = new SimulationModel(*puf_);
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete puf_;
    puf_ = nullptr;
  }

  /// `count` challenges where the second half repeats the first half, so
  /// cache hits occur *within* one batch, including concurrently.
  static std::vector<Challenge> challenges_with_repeats(std::size_t count,
                                                        std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<Challenge> cs;
    cs.reserve(count);
    for (std::size_t i = 0; i < (count + 1) / 2; ++i)
      cs.push_back(random_challenge(model_->layout(), rng));
    while (cs.size() < count) cs.push_back(cs[cs.size() - (count + 1) / 2]);
    return cs;
  }

  static void expect_bitwise_equal(
      const std::vector<SimulationModel::Prediction>& a,
      const std::vector<SimulationModel::Prediction>& b,
      const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].bit, b[i].bit) << label << " item " << i;
      // Bitwise: exact double equality, no tolerance.
      EXPECT_EQ(a[i].flow_a, b[i].flow_a) << label << " item " << i;
      EXPECT_EQ(a[i].flow_b, b[i].flow_b) << label << " item " << i;
      EXPECT_EQ(a[i].status.code(), b[i].status.code())
          << label << " item " << i;
    }
  }

  static MaxFlowPpuf* puf_;
  static SimulationModel* model_;
};

MaxFlowPpuf* BatchConcurrencyTest::puf_ = nullptr;
SimulationModel* BatchConcurrencyTest::model_ = nullptr;

TEST_F(BatchConcurrencyTest, PredictBatchIdenticalAcrossThreadCounts) {
  const std::vector<Challenge> batch = challenges_with_repeats(32, 7);

  SimulationModel::PredictBatchOptions serial;
  EXPECT_TRUE(model_->predict_batch({}, serial).empty());
  const auto baseline = model_->predict_batch(batch, serial);
  for (const auto& p : baseline) ASSERT_TRUE(p.ok());
  // Input order: item i is exactly predict() of challenge i.
  std::vector<SimulationModel::Prediction> one_by_one;
  for (const Challenge& c : batch) one_by_one.push_back(model_->predict(c));
  expect_bitwise_equal(baseline, one_by_one, "predict() per item");

  for (const unsigned threads : {2u, 4u}) {
    util::ThreadPool pool(threads);
    SimulationModel::PredictBatchOptions parallel;
    parallel.pool = &pool;
    expect_bitwise_equal(baseline, model_->predict_batch(batch, parallel),
                         std::to_string(threads) + " threads");
  }
}

TEST_F(BatchConcurrencyTest, PredictBatchIdenticalWithAndWithoutCache) {
  const std::vector<Challenge> batch = challenges_with_repeats(32, 11);

  SimulationModel::PredictBatchOptions serial;
  const auto baseline = model_->predict_batch(batch, serial);

  // Cold cache, serial: second half of the batch hits the first half's
  // freshly inserted entries.
  {
    ResponseCache cache(8 * 1024 * 1024);
    SimulationModel::PredictBatchOptions cached;
    cached.cache = &cache;
    expect_bitwise_equal(baseline, model_->predict_batch(batch, cached),
                         "serial cached");
    EXPECT_GT(cache.stats().hits, 0u);
  }
  // Cold cache, 4 workers: concurrent lookups and inserts on the same
  // keys must still produce the baseline answers.
  {
    ResponseCache cache(8 * 1024 * 1024);
    util::ThreadPool pool(4);
    SimulationModel::PredictBatchOptions cached;
    cached.cache = &cache;
    cached.pool = &pool;
    expect_bitwise_equal(baseline, model_->predict_batch(batch, cached),
                         "parallel cached, cold");
    // Warm cache, 4 workers: now everything hits.
    const auto warm_before = cache.stats();
    expect_bitwise_equal(baseline, model_->predict_batch(batch, cached),
                         "parallel cached, warm");
    EXPECT_EQ(cache.stats().hits - warm_before.hits, batch.size());
    EXPECT_EQ(cache.stats().misses, warm_before.misses);
  }
}

TEST_F(BatchConcurrencyTest, ExpiredControlMarksEveryItemIdentically) {
  const std::vector<Challenge> batch = challenges_with_repeats(16, 19);
  // Serial on the calling thread, then fanned out across four workers.
  util::ThreadPool four(4);
  const std::vector<util::ThreadPool*> pools{nullptr, &four};

  for (util::ThreadPool* pool : pools) {
    const unsigned threads = pool == nullptr ? 1 : pool->thread_count();
    SimulationModel::PredictBatchOptions options;
    options.pool = pool;
    options.control.deadline = util::Deadline::after_seconds(0.0);
    const auto results = model_->predict_batch(batch, options);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status.code(),
                util::StatusCode::kDeadlineExceeded)
          << threads << " threads, item " << i;
    }
  }

  util::CancelToken cancel;
  cancel.request_cancel();
  for (util::ThreadPool* pool : pools) {
    const unsigned threads = pool == nullptr ? 1 : pool->thread_count();
    SimulationModel::PredictBatchOptions options;
    options.pool = pool;
    options.control.cancel = &cancel;
    const auto results = model_->predict_batch(batch, options);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status.code(), util::StatusCode::kCancelled)
          << threads << " threads, item " << i;
    }
  }
}

// Per-item deadlines: one expired item must be answered typed without
// being attempted, and must not poison its batch-mates — the invariant a
// coalescing server relies on when it folds requests with different
// budgets into one batch.
TEST_F(BatchConcurrencyTest, PerItemDeadlineExpiresOneItemNotItsMates) {
  const std::vector<Challenge> batch = challenges_with_repeats(6, 23);

  SimulationModel::PredictBatchOptions plain;
  const auto want = model_->predict_batch(batch, plain);

  util::ThreadPool four(4);
  const std::vector<util::ThreadPool*> pools{nullptr, &four};
  for (util::ThreadPool* pool : pools) {
    const unsigned threads = pool == nullptr ? 1 : pool->thread_count();
    SimulationModel::PredictBatchOptions options;
    options.pool = pool;
    options.deadlines.assign(batch.size(), util::Deadline());
    options.deadlines[2] = util::Deadline::after_seconds(0.0);  // expired
    const auto results = model_->predict_batch(batch, options);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i == 2) {
        EXPECT_EQ(results[i].status.code(),
                  util::StatusCode::kDeadlineExceeded)
            << threads << " threads";
        continue;
      }
      ASSERT_TRUE(results[i].ok()) << threads << " threads, item " << i;
      EXPECT_EQ(results[i].bit, want[i].bit);
      EXPECT_EQ(results[i].flow_a, want[i].flow_a);
      EXPECT_EQ(results[i].flow_b, want[i].flow_b);
    }
  }

  // A deadlines vector of the wrong length is a caller bug, not a data
  // error: it must throw, not silently misalign budgets with items.
  SimulationModel::PredictBatchOptions mismatched;
  mismatched.deadlines.assign(batch.size() + 1, util::Deadline());
  EXPECT_THROW(model_->predict_batch(batch, mismatched),
               std::invalid_argument);
}

// Regression: the control-aware parallel_for used to re-poll the control
// AFTER all items had completed, so a deadline expiring in the gap between
// the last item finishing and the return mislabelled a fully-completed
// batch as kDeadlineExceeded.  The call must report only what the
// dispatched items observed: every item ran with an ok status -> Ok.
TEST_F(BatchConcurrencyTest, DeadlineExpiryAfterCompletionStillReportsOk) {
  util::ThreadPool pool(2);
  // Generous enough that the single item always starts in time, even on a
  // loaded CI host.
  util::SolveControl control;
  control.deadline = util::Deadline::after_seconds(0.05);

  std::atomic<int> ok_items{0};
  const util::Status status = pool.parallel_for(
      1,
      [&](std::size_t, const util::Status& stop) {
        if (stop.is_ok()) {
          ++ok_items;
          // Outlive the deadline: by the time this item returns, the
          // control has expired — but the item itself was never stopped.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      },
      control);

  ASSERT_EQ(ok_items.load(), 1);
  EXPECT_TRUE(control.deadline.expired());
  EXPECT_TRUE(status.is_ok()) << status.to_string();

  // Control case: a deadline that fires before dispatch still surfaces,
  // both per item and in the aggregate status.
  util::SolveControl expired;
  expired.deadline = util::Deadline::after_seconds(0.0);
  std::atomic<int> stopped_items{0};
  const util::Status late = pool.parallel_for(
      1,
      [&](std::size_t, const util::Status& stop) {
        if (!stop.is_ok()) ++stopped_items;
      },
      expired);
  EXPECT_EQ(stopped_items.load(), 1);
  EXPECT_EQ(late.code(), util::StatusCode::kDeadlineExceeded);
}

TEST_F(BatchConcurrencyTest, SharedPoolServesConcurrentBatchFronts) {
  // One long-lived pool serving repeated predict_batch calls — the service
  // topology.  (Also a lifetime test: the pool must drain cleanly between
  // calls.)
  util::ThreadPool pool(4);
  const std::vector<Challenge> batch = challenges_with_repeats(16, 23);

  SimulationModel::PredictBatchOptions serial;
  const auto baseline = model_->predict_batch(batch, serial);

  SimulationModel::PredictBatchOptions pooled;
  pooled.pool = &pool;
  for (int round = 0; round < 3; ++round) {
    expect_bitwise_equal(baseline, model_->predict_batch(batch, pooled),
                         "round " + std::to_string(round));
  }
}

TEST_F(BatchConcurrencyTest, FlatKernelScratchIsPerThread) {
  // predict and verify both run on the calling thread's reusable K_n
  // scratch.  A predict_batch on a shared pool racing a verify_batch on
  // a second four-worker pool must still give every item its serial answer.
  const std::vector<Challenge> batch = challenges_with_repeats(24, 31);
  const protocol::Verifier verifier(*model_, /*deadline_seconds=*/1e9,
                                    0.1 * model_->mean_capacity());
  std::vector<protocol::ProverReport> reports;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    protocol::ProverReport r = protocol::prove_by_simulation(*model_,
                                                             batch[i]);
    // Every third report is forged (half of every flow: feasible, not
    // maximum) so the rejection path runs concurrently too.
    if (i % 3 == 2) {
      for (double& f : r.edge_flow_a) f *= 0.5;
      for (double& f : r.edge_flow_b) f *= 0.5;
    }
    reports.push_back(std::move(r));
  }

  const auto predicted = model_->predict_batch(batch, {});
  const auto verified = verifier.verify_batch(batch, reports);
  std::size_t rejected = 0;
  for (const auto& v : verified) rejected += v.accepted ? 0 : 1;
  ASSERT_EQ(rejected, batch.size() / 3);

  util::ThreadPool pool(4);
  SimulationModel::PredictBatchOptions pooled;
  pooled.pool = &pool;
  util::ThreadPool verify_pool(4);
  protocol::Verifier::BatchVerifyOptions four;
  four.pool = &verify_pool;
  for (int round = 0; round < 3; ++round) {
    std::vector<protocol::AuthenticationResult> concurrent;
    std::thread verify_front(
        [&] { concurrent = verifier.verify_batch(batch, reports, four); });
    const auto pooled_predictions = model_->predict_batch(batch, pooled);
    verify_front.join();

    const std::string label = "round " + std::to_string(round);
    expect_bitwise_equal(predicted, pooled_predictions, label);
    ASSERT_EQ(concurrent.size(), verified.size()) << label;
    for (std::size_t i = 0; i < verified.size(); ++i) {
      EXPECT_EQ(concurrent[i].accepted, verified[i].accepted)
          << label << " item " << i;
      EXPECT_EQ(concurrent[i].flows_valid, verified[i].flows_valid)
          << label << " item " << i;
      EXPECT_EQ(concurrent[i].bit_consistent, verified[i].bit_consistent)
          << label << " item " << i;
      EXPECT_EQ(concurrent[i].detail, verified[i].detail)
          << label << " item " << i;
    }
  }
}

}  // namespace
}  // namespace ppuf
