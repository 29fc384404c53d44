// Load-generation harness for the serving benchmark: timing helpers,
// sample statistics, an in-memory span log, and two closed-loop
// generators that drive servers over loopback.
//
//   - ReadLoop: one thread multiplexing up to a few raw-frame connections
//     with poll().  Each connection keeps a fixed number of requests
//     outstanding (a closed loop: the next read goes out only when a reply
//     comes back).  An optional extra connection sends ENROLL frames on a
//     fixed schedule (an open loop), timed from each enroll's due time.
//   - SessionLoop: one thread running chained-auth sessions back to back
//     through net::AuthClient (CHALLENGE -> chip proof -> CHAINED_AUTH).
//     Only the two round trips are timed; the chip simulation is not.
//
// Neither loop retries: a failed request is counted, never re-sent.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/wire.hpp"
#include "ppuf/ppuf.hpp"
#include "protocol/authentication.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline Clock::duration seconds_to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();
/// Process resident set now (VmRSS) in MiB.
double rss_mb();
/// "model name" of the first CPU in /proc/cpuinfo.
std::string cpu_model();

// --- host interference -----------------------------------------------------

/// Cumulative CPU time over all CPUs, in jiffies, from /proc/stat.
struct CpuTimes {
  double steal = 0.0;  ///< time the hypervisor ran other guests
  double total = 0.0;
};
CpuTimes read_cpu_times();
/// Share of CPU time stolen by the host between two samples.
double steal_share(const CpuTimes& from, const CpuTimes& to);

// --- latency statistics ----------------------------------------------------

/// Fixed-size latency histogram: log-spaced buckets 1% wide from 1 us to
/// 10 s, one bucket below and one above.  Its memory is allocated and
/// touched up front, so the generator's footprint (which the process's peak
/// RSS includes) does not grow with the number of requests served.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(double us);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Percentile by rank, interpolated inside the bucket; 0 when empty.
  double percentile(double q) const;
  /// Memory one histogram holds.
  static std::size_t bytes();

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Completions cut into whole windows of `window_s` by completion time,
/// covering [kWarmupS, seconds); each window keeps its own histogram.
/// Completions during the warm-up or after the last whole window (the
/// drain after the clock stops) are not recorded.
class WindowedLatency {
 public:
  WindowedLatency() = default;  ///< no windows
  WindowedLatency(double seconds, double window_s);
  void record(double end_us, double latency_us);
  double window_s() const { return window_s_; }

  std::vector<double> rates() const;  ///< completions per second
  /// The windows `which` merged into one histogram.
  LatencyHistogram pooled(const std::vector<std::size_t>& which) const;
  std::uint64_t total() const;
  std::size_t size() const { return windows_.size(); }

 private:
  double window_s_ = 1.0;
  std::vector<LatencyHistogram> windows_;
};

// --- spans -----------------------------------------------------------------

/// One timed interval.  Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the log, or -1 for a root.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the log's origin
  double end_us = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Thread-safe: the read and session loops log into one SpanLog.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Record a finished span; returns its index (usable as a parent).
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t request);
  /// Open a span now and close it with end(); returns its index.
  int begin(std::string name, int parent, std::uint64_t request);
  void end(int index);

  /// Read-side accessors; call once no loop is logging.
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// One JSON object per line, each with its self time: the span's
  /// duration minus the part of its interval its children cover.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- read loop -------------------------------------------------------------

enum class ReadKind : std::uint8_t { kPredict, kVerify };

/// One read the workload wants sent: the frame payload plus whatever the
/// workload needs to check the reply (`item`).
struct ReadRequest {
  ReadKind kind = ReadKind::kPredict;
  std::uint64_t device_id = 0;
  std::size_t item = 0;
  std::vector<std::uint8_t> payload;
};

/// Endpoint of one connection.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// The first second of a timed phase (connections, first hydrations) is
/// warm-up: WindowedLatency does not record it.
constexpr double kWarmupS = 1.0;

struct ReadLoopConfig {
  /// One outstanding read each; paced enrolls use one more connection to
  /// the first endpoint.
  std::vector<Endpoint> connections;
  double seconds = 1.0;
  double window_s = 1.0;  ///< see WindowedLatency
  /// Paced enrolls, one every enroll_period_s, the first half a period
  /// after the loop starts.  0 = none.
  double enroll_period_s = 0.0;
  /// Spans for every read / enroll round trip, and a ReadSample per read
  /// (the traced run's replay pairs requests with round trips), when
  /// non-null.
  SpanLog* spans = nullptr;
};

/// One read, kept only in a traced run (ReadLoopConfig::spans set).
struct ReadSample {
  std::uint32_t request_id;
  std::uint32_t item;
  float latency_us;  ///< send to reply
  ReadKind kind;
};

struct EnrollSample {
  double due_us = 0.0;   ///< since loop start
  double sent_us = 0.0;
  double end_us = 0.0;
  CpuTimes sent_cpu;     ///< at send
  double steal = 0.0;    ///< host steal share from send to reply
  bool ok = false;
  std::uint64_t device_id = 0;  ///< assigned id on success
};

struct ReadLoopResult {
  WindowedLatency latency;  ///< successful reads
  /// CPU times sampled at kWarmupS + k * window_s, k = 0 .. windows, so
  /// window k's host steal share is steal_share(cpu_marks[k], [k + 1]).
  std::vector<CpuTimes> cpu_marks;
  std::uint64_t attempted = 0;  ///< reads answered (ok or not)
  std::uint64_t failed = 0;
  /// Reads whose send..reply interval overlaps an enroll's send..reply.
  std::uint64_t enroll_overlapped = 0;
  std::deque<ReadSample> reads;  ///< only in a traced run
  std::vector<EnrollSample> enrolls;
  std::uint64_t request_bytes = 0;  ///< read request frames sent
  std::uint64_t reply_bytes = 0;    ///< read reply frames received
  std::string transport_error;      ///< set when a connection broke
};

/// `next` fills the i-th read (called in send order); `check` judges a
/// reply frame for a read and returns false on any error or mismatch.
/// `enroll_body` produces the k-th paced enroll.
struct ReadLoopCallbacks {
  std::function<void(std::size_t index, ReadRequest*)> next;
  std::function<bool(const ReadRequest&, const ppuf::net::Frame&)> check;
  std::function<ppuf::net::EnrollRequestBody(std::size_t index)> enroll_body;
};

ReadLoopResult run_read_loop(const ReadLoopConfig& config,
                             const ReadLoopCallbacks& callbacks);

// --- session loop ----------------------------------------------------------

/// A device the session loop authenticates: its id on the wire, the chip
/// that proves, and the public-model verifier that checks every round of
/// the chip's proof in-process (the reference verdict).
struct SessionDevice {
  std::uint64_t id = 0;
  ppuf::MaxFlowPpuf* chip = nullptr;
  const ppuf::protocol::Verifier* verifier = nullptr;
  const ppuf::SimulationModel* model = nullptr;
};

struct SessionLoopConfig {
  Endpoint endpoint;
  std::vector<SessionDevice> devices;  ///< used round robin
  double seconds = 1.0;
  double window_s = 1.0;  ///< see WindowedLatency
  double think_s = 0.0;  ///< pause after each session
  SpanLog* spans = nullptr;
};

struct SessionRecord {
  ppuf::net::ChallengeGrant grant;
  ppuf::protocol::ChainedReport report;
  std::uint64_t device_id = 0;
};

struct SessionLoopResult {
  /// CHALLENGE + CHAINED_AUTH round trips of accepted-or-legitimately-
  /// rejected sessions.
  WindowedLatency latency;
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< transport/typed error, or mismatch
  std::size_t mismatches = 0;      ///< honest chain rejected by the server
  std::size_t out_of_tolerance = 0;  ///< chip proof the reference rejects
  /// Grant and report of every 8th session, at most 16, for the
  /// in-process replay.
  std::vector<SessionRecord> samples;
  std::string error;               ///< first failure, for the log
};

SessionLoopResult run_session_loop(const SessionLoopConfig& config);

/// Client options with no retries, no breaker and a fixed jitter seed, so
/// a failure is counted once and never re-sent.
ppuf::net::ClientOptions no_retry_client(std::uint64_t device_id);

}  // namespace perfbench
