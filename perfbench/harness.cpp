#include "harness.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/socket.hpp"

namespace perfbench {

namespace net = ppuf::net;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {
/// A "Vm...:" field of /proc/self/status in MiB; 0 if absent.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields(line.substr(field.size()));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}
}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }
double rss_mb() { return status_mb("VmRSS:"); }

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

// --- host interference -----------------------------------------------------

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line
  CpuTimes t;
  double v = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& from, const CpuTimes& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

// --- latency statistics ----------------------------------------------------

namespace {
// Bucket 0 holds latencies below 1 us; bucket b >= 1 holds
// [kGrowth^(b-1), kGrowth^b) us; the last bucket everything from 10 s up.
constexpr double kGrowth = 1.01;
const double kLogGrowth = std::log(kGrowth);
constexpr std::size_t kLogBuckets = 1620;  // kGrowth^1620 > 1e7 us
constexpr std::size_t kBuckets = kLogBuckets + 2;

double bucket_low(std::size_t b) {
  return b == 0 ? 0.0 : std::pow(kGrowth, static_cast<double>(b - 1));
}
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

std::size_t LatencyHistogram::bytes() {
  return kBuckets * sizeof(std::uint32_t);
}

void LatencyHistogram::record(double us) {
  std::size_t b = 0;
  if (us >= 1.0)
    b = std::min(1 + static_cast<std::size_t>(std::log(us) / kLogGrowth),
                 kBuckets - 1);
  ++buckets_[b];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double n = buckets_[b];
    if (n == 0 || before + n <= rank) {
      before += n;
      continue;
    }
    const double low = bucket_low(b);
    const double high = b + 1 < kBuckets ? bucket_low(b + 1) : low;
    return low + (high - low) * (rank - before + 0.5) / n;
  }
  return bucket_low(kBuckets - 1);
}

WindowedLatency::WindowedLatency(double seconds, double window_s)
    : window_s_(window_s),
      windows_(static_cast<std::size_t>(std::max(
          1.0, std::floor((seconds - kWarmupS) / window_s + 1e-9)))) {}

void WindowedLatency::record(double end_us, double latency_us) {
  const double w = (end_us / 1e6 - kWarmupS) / window_s_;
  if (w >= 0 && w < static_cast<double>(windows_.size()))
    windows_[static_cast<std::size_t>(w)].record(latency_us);
}

std::vector<double> WindowedLatency::rates() const {
  std::vector<double> out;
  for (const LatencyHistogram& h : windows_)
    out.push_back(static_cast<double>(h.count()) / window_s_);
  return out;
}

LatencyHistogram WindowedLatency::pooled(
    const std::vector<std::size_t>& which) const {
  LatencyHistogram out;
  for (const std::size_t w : which) out.merge(windows_[w]);
  return out;
}

std::uint64_t WindowedLatency::total() const {
  std::uint64_t n = 0;
  for (const LatencyHistogram& h : windows_) n += h.count();
  return n;
}

// --- spans -----------------------------------------------------------------

int SpanLog::add(std::string name, Clock::time_point start,
                 Clock::time_point end, int parent, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), us_between(origin_, start),
                    us_between(origin_, end), parent, request});
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::begin(std::string name, int parent, std::uint64_t request) {
  const Clock::time_point now = Clock::now();
  return add(std::move(name), now, now, parent, request);
}

void SpanLog::end(int index) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us =
      us_between(origin_, Clock::now());
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>>& covered = children[i];
    std::sort(covered.begin(), covered.end());
    double child_us = 0.0, reach = s.start_us;
    for (const auto& [a, b] : covered) {
      const double from = std::max(a, reach);
      const double to = std::min(b, s.end_us);
      if (to > from) {
        child_us += to - from;
        reach = to;
      }
    }
    out << "{\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us
        << ",\"self_us\":" << (s.end_us - s.start_us) - child_us
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// --- read loop -------------------------------------------------------------

namespace {

struct Outstanding {
  ReadRequest request;
  std::uint64_t id = 0;
  Clock::time_point sent;
  std::size_t enroll_index = 0;  ///< enroll connection only
};

struct Connection {
  net::Socket socket;
  std::vector<std::uint8_t> in;
  std::vector<Outstanding> outstanding;
  bool enroll = false;
};

ppuf::util::Status open_connection(const Endpoint& endpoint,
                                   Connection* out) {
  if (auto s = net::connect_tcp(endpoint.host, endpoint.port, 2000,
                                &out->socket);
      !s.is_ok())
    return s;
  return net::set_nonblocking(out->socket.fd());
}

}  // namespace

ReadLoopResult run_read_loop(const ReadLoopConfig& config,
                             const ReadLoopCallbacks& callbacks) {
  ReadLoopResult result;
  result.latency = WindowedLatency(config.seconds, config.window_s);
  std::vector<Connection> connections(config.connections.size());
  for (std::size_t i = 0; i < connections.size(); ++i) {
    if (auto s = open_connection(config.connections[i], &connections[i]);
        !s.is_ok()) {
      result.transport_error = "connect: " + s.to_string();
      return result;
    }
  }
  const bool paced_enrolls =
      config.enroll_period_s > 0.0 && !config.connections.empty();
  if (paced_enrolls) {
    connections.emplace_back();
    connections.back().enroll = true;
    if (auto s = open_connection(config.connections.front(),
                                 &connections.back());
        !s.is_ok()) {
      result.transport_error = "connect: " + s.to_string();
      return result;
    }
  }

  const Clock::time_point t0 = Clock::now();
  const auto offset_us = [t0](Clock::time_point t) { return us_between(t0, t); };
  const Clock::time_point stop_at = t0 + seconds_to_duration(config.seconds);
  const Clock::duration period = seconds_to_duration(config.enroll_period_s);
  Clock::time_point next_due = t0 + period / 2;
  const Clock::duration window = seconds_to_duration(config.window_s);
  Clock::time_point next_mark = t0 + seconds_to_duration(kWarmupS);
  const std::size_t marks = result.latency.size() + 1;
  std::uint64_t next_id = 1;
  std::size_t read_index = 0;

  const auto send_frame = [&](Connection& c, net::MessageType type,
                              Outstanding o) {
    const std::vector<std::uint8_t> bytes = net::encode_frame(
        type, o.id, o.request.device_id, 0, o.request.payload);
    o.sent = Clock::now();
    if (auto s = net::send_all(c.socket.fd(), bytes.data(), bytes.size(),
                               ppuf::util::Deadline::after_seconds(5.0));
        !s.is_ok()) {
      result.transport_error = "send: " + s.to_string();
      return;
    }
    if (!c.enroll) result.request_bytes += bytes.size();
    c.outstanding.push_back(std::move(o));
  };
  const auto send_read = [&](Connection& c) {
    Outstanding o;
    callbacks.next(read_index++, &o.request);
    o.id = next_id++;
    const net::MessageType type = o.request.kind == ReadKind::kPredict
                                      ? net::MessageType::kPredictRequest
                                      : net::MessageType::kVerifyRequest;
    send_frame(c, type, std::move(o));
  };
  const auto send_enroll = [&](Connection& c, Clock::time_point due) {
    Outstanding o;
    o.id = next_id++;
    o.enroll_index = result.enrolls.size();
    o.request.device_id = 0;  // the shard assigns the next free id
    o.request.payload =
        net::encode_enroll_request(callbacks.enroll_body(o.enroll_index));
    EnrollSample sample;
    sample.due_us = offset_us(due);
    sample.sent_cpu = read_cpu_times();
    sample.sent_us = offset_us(Clock::now());
    result.enrolls.push_back(sample);
    send_frame(c, net::MessageType::kEnrollRequest, std::move(o));
  };

  const auto on_reply = [&](Connection& c, net::Frame frame,
                            Clock::time_point now, bool stopping) {
    const auto it = std::find_if(
        c.outstanding.begin(), c.outstanding.end(),
        [&](const Outstanding& o) { return o.id == frame.request_id; });
    if (it == c.outstanding.end()) {
      result.transport_error = "reply matches no outstanding request";
      return;
    }
    Outstanding o = std::move(*it);
    c.outstanding.erase(it);
    if (c.enroll) {
      EnrollSample& e = result.enrolls[o.enroll_index];
      e.end_us = offset_us(now);
      e.steal = steal_share(e.sent_cpu, read_cpu_times());
      net::EnrollReplyBody body;
      e.ok = frame.type == net::MessageType::kEnrollReply &&
             net::decode_enroll_reply(frame.payload, &body).is_ok();
      e.device_id = body.device_id;
      if (config.spans != nullptr)
        config.spans->add("client.enroll", o.sent, now, -1, o.id);
      return;
    }
    result.reply_bytes += net::kHeaderSize + frame.payload.size();
    const bool ok = callbacks.check(o.request, frame);
    const double start_us = offset_us(o.sent);
    const double latency_us = us_between(o.sent, now);
    ++result.attempted;
    if (ok) result.latency.record(start_us + latency_us, latency_us);
    else ++result.failed;
    // Every enroll sent before this reply either ended after the read
    // started or is still in flight.
    for (const EnrollSample& e : result.enrolls) {
      if (e.sent_us < start_us + latency_us &&
          (e.end_us == 0.0 || e.end_us > start_us)) {
        ++result.enroll_overlapped;
        break;
      }
    }
    if (config.spans != nullptr) {
      result.reads.push_back({static_cast<std::uint32_t>(o.id),
                              static_cast<std::uint32_t>(o.request.item),
                              static_cast<float>(latency_us),
                              o.request.kind});
      config.spans->add("client.read", o.sent, now, -1, o.id);
    }
    if (!stopping) send_read(c);
  };

  for (Connection& c : connections)
    if (!c.enroll) send_read(c);

  std::vector<pollfd> fds(connections.size());
  std::vector<std::uint8_t> buffer(1 << 16);
  bool stopping = false;
  Clock::time_point drain_limit{};
  while (result.transport_error.empty()) {
    Clock::time_point now = Clock::now();
    if (!stopping && now >= stop_at) {
      stopping = true;
      drain_limit = now + std::chrono::seconds(10);
    }
    if (result.cpu_marks.size() < marks && now >= next_mark) {
      result.cpu_marks.push_back(read_cpu_times());
      next_mark += window;
      continue;
    }
    if (paced_enrolls && !stopping && now >= next_due) {
      send_enroll(connections.back(), next_due);
      next_due += period;
      continue;
    }
    bool waiting = false;
    for (const Connection& c : connections)
      waiting = waiting || !c.outstanding.empty();
    if (stopping && !waiting) break;
    if (stopping && now >= drain_limit) {
      result.transport_error = "replies still outstanding 10 s after stop";
      break;
    }
    Clock::time_point wake = stopping ? drain_limit : stop_at;
    if (paced_enrolls && !stopping) wake = std::min(wake, next_due);
    if (result.cpu_marks.size() < marks) wake = std::min(wake, next_mark);
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(wake - now);
    for (std::size_t i = 0; i < connections.size(); ++i)
      fds[i] = {connections[i].socket.fd(), POLLIN, 0};
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             static_cast<int>(std::max<long long>(
                                 0, wait.count())));
    if (ready < 0) {
      if (errno == EINTR) continue;
      result.transport_error = "poll failed";
      break;
    }
    for (std::size_t i = 0; i < connections.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = connections[i];
      for (;;) {
        const ssize_t n = ::recv(c.socket.fd(), buffer.data(), buffer.size(), 0);
        if (n > 0) {
          c.in.insert(c.in.end(), buffer.begin(), buffer.begin() + n);
          continue;
        }
        if (n == 0) result.transport_error = "server closed a connection";
        else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          result.transport_error = "recv failed";
        break;
      }
      now = Clock::now();
      std::size_t offset = 0;
      for (;;) {
        net::Frame frame;
        std::size_t consumed = 0;
        const net::DecodeResult r = net::decode_frame(
            c.in.data() + offset, c.in.size() - offset, &frame, &consumed);
        if (r == net::DecodeResult::kNeedMore) break;
        if (r == net::DecodeResult::kMalformed) {
          result.transport_error = "malformed reply frame";
          break;
        }
        offset += consumed;
        on_reply(c, std::move(frame), now, stopping);
      }
      c.in.erase(c.in.begin(),
                 c.in.begin() + static_cast<std::ptrdiff_t>(offset));
    }
  }
  return result;
}

// --- session loop ----------------------------------------------------------

ppuf::net::ClientOptions no_retry_client(std::uint64_t device_id) {
  net::ClientOptions options;
  options.max_attempts = 1;
  options.backoff_seed = 1;
  options.breaker_failure_threshold = 0;
  options.device_id = device_id;
  return options;
}

namespace {
constexpr std::uint64_t kSessionSampleEvery = 8;
constexpr std::size_t kSessionSampleLimit = 16;
}  // namespace

SessionLoopResult run_session_loop(const SessionLoopConfig& config) {
  SessionLoopResult result;
  result.latency = WindowedLatency(config.seconds, config.window_s);
  if (config.devices.empty()) return result;
  // One connection for every device: the id rides each frame's header,
  // and a gateway pins a session by (connection, device id).  Connect
  // before the clock starts.
  net::AuthClient client(config.endpoint.host, config.endpoint.port,
                         no_retry_client(config.devices.front().id));
  if (auto s = client.ping(); !s.is_ok()) {
    result.error = "session connect: " + s.to_string();
    result.failed = result.attempted = 1;
    return result;
  }
  const auto fail = [&result](const std::string& what) {
    ++result.failed;
    if (result.error.empty()) result.error = what;
  };

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop_at = t0 + seconds_to_duration(config.seconds);
  std::uint64_t session = 0;
  while (Clock::now() < stop_at) {
    const SessionDevice& device =
        config.devices[session % config.devices.size()];
    client.set_device_id(device.id);
    ++session;
    ++result.attempted;

    net::ChallengeGrant grant;
    const Clock::time_point c0 = Clock::now();
    const auto granted = client.get_challenge(&grant);
    const Clock::time_point c1 = Clock::now();
    if (!granted.is_ok()) {
      fail("CHALLENGE: " + granted.to_string());
      continue;
    }
    const ppuf::protocol::ChainedReport report =
        ppuf::protocol::prove_chain_with_ppuf(*device.chip, grant.challenge,
                                              grant.chain_length, grant.nonce,
                                              1e-3);
    ppuf::protocol::ChainedVerifyResult verdict;
    const Clock::time_point a0 = Clock::now();
    const auto answered = client.chained_auth(grant, report, &verdict);
    const Clock::time_point a1 = Clock::now();
    if (config.spans != nullptr) {
      const int root = config.spans->add("client.session", c0, a1, -1, session);
      config.spans->add("client.challenge_rt", c0, c1, root, session);
      config.spans->add("client.chained_auth_rt", a0, a1, root, session);
    }
    if (!answered.is_ok()) {
      fail("CHAINED_AUTH: " + answered.to_string());
      continue;
    }
    result.latency.record(us_between(t0, a1),
                          us_between(c0, c1) + us_between(a0, a1));

    // Reference verdict with every round checked: when it accepts, any
    // spot-checked subset must accept too.  When it rejects (the chip's
    // analog flows fell outside the verifier's tolerance) the server may
    // answer either way, depending on which rounds it spot-checks.
    ppuf::util::Rng unused(session);
    const bool honest =
        ppuf::protocol::verify_chain(*device.verifier, *device.model,
                                     grant.challenge, grant.chain_length,
                                     grant.nonce, report, 0, unused)
            .accepted;
    if (!honest) {
      ++result.out_of_tolerance;
    } else if (!verdict.accepted) {
      ++result.mismatches;
      fail("honest chained session rejected: " + verdict.detail);
    }
    if (session % kSessionSampleEvery == 0 &&
        result.samples.size() < kSessionSampleLimit)
      result.samples.push_back({grant, report, device.id});
    if (config.think_s > 0)
      std::this_thread::sleep_for(seconds_to_duration(config.think_s));
  }
  return result;
}

}  // namespace perfbench
