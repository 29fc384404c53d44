#include "net/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <unordered_map>

#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace ppuf::net {

namespace {

using util::Status;

obs::Counter* counter_or_null(const char* name) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  return reg.enabled() ? &reg.counter(name) : nullptr;
}

std::uint64_t entropy_seed() {
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

/// The deadline actually used for one attempt: the caller's, or the
/// default per-attempt budget when the caller passed unlimited (a client
/// must never block forever on a wedged server).
util::Deadline attempt_deadline(const util::Deadline& caller,
                                int default_ms) {
  if (!caller.is_unlimited()) return caller;
  return util::Deadline::after_seconds(default_ms * 1e-3);
}

}  // namespace

int decorrelated_jitter_ms(util::Rng& rng, int base_ms, int cap_ms,
                           int prev_ms) {
  base_ms = std::max(1, base_ms);
  cap_ms = std::max(base_ms, cap_ms);
  // Decorrelated jitter (a la the classic AWS architecture-blog scheme):
  // each pause is uniform in [base, 3 * previous], capped.  Growth is
  // still roughly exponential in expectation, but two clients that failed
  // at the same instant immediately diverge.
  const std::int64_t hi = std::min<std::int64_t>(
      cap_ms, 3ll * std::max(prev_ms, base_ms));
  return static_cast<int>(rng.uniform_int(base_ms, hi));
}

AuthClient::AuthClient(std::string host, std::uint16_t port,
                       ClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      backoff_rng_(options.backoff_seed != 0 ? options.backoff_seed
                                             : entropy_seed()) {
  refresh_breaker();
}

void AuthClient::refresh_breaker() {
  if (options_.breaker_failure_threshold <= 0) {
    breaker_ = nullptr;
    return;
  }
  const std::string key = host_ + ":" + std::to_string(port_);
  auto it = breakers_.find(key);
  if (it == breakers_.end()) {
    CircuitBreaker::Options bo;
    bo.failure_threshold = options_.breaker_failure_threshold;
    bo.cooldown_ms = options_.breaker_cooldown_ms;
    it = breakers_.emplace(key, endpoint_breaker(host_, port_, bo)).first;
  }
  breaker_ = it->second;
}

void AuthClient::set_endpoint(const std::string& host, std::uint16_t port) {
  if (host == host_ && port == port_) return;
  disconnect();
  host_ = host;
  port_ = port;
  refresh_breaker();
}

AuthClient::~AuthClient() { disconnect(); }

bool AuthClient::connected() const { return fd_ >= 0; }

void AuthClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Status AuthClient::ensure_connected(const util::Deadline& deadline) {
  if (fd_ >= 0) return Status::ok();
  const auto left_ms = deadline.is_unlimited()
                           ? options_.connect_timeout_ms
                           : static_cast<int>(std::min<long long>(
                                 options_.connect_timeout_ms,
                                 std::chrono::duration_cast<
                                     std::chrono::milliseconds>(
                                     deadline.remaining())
                                     .count()));
  Socket sock;
  if (Status s = connect_tcp(host_, port_, left_ms, &sock); !s.is_ok())
    return s;
  fd_ = sock.release();
  ++stats_.reconnects;
  return Status::ok();
}

util::Status AuthClient::attempt(MessageType type,
                                 const std::vector<std::uint8_t>& payload,
                                 const util::Deadline& deadline,
                                 Frame* reply) {
  ++stats_.attempts;
  if (Status s = ensure_connected(deadline); !s.is_ok()) return s;

  const std::uint64_t request_id = next_request_id_++;
  const std::vector<std::uint8_t> frame =
      encode_frame(type, request_id, options_.device_id,
                   budget_ms_for(deadline), payload);
  if (Status s = send_all(fd_, frame.data(), frame.size(), deadline);
      !s.is_ok()) {
    disconnect();
    return s;
  }

  if (Status s = read_frame(fd_, reply, deadline); !s.is_ok()) {
    disconnect();
    return s;
  }
  if (reply->request_id != request_id) {
    // The stream is out of sync (a stale reply from a previous timed-out
    // request); drop the connection rather than guess.
    disconnect();
    return Status::unavailable("reply id mismatch; connection resynced");
  }
  return Status::ok();
}

util::Status AuthClient::round_trip(MessageType type,
                                    const std::vector<std::uint8_t>& payload,
                                    const util::Deadline& deadline,
                                    MessageType expected_reply,
                                    Frame* reply) {
  ++stats_.requests;
  if (obs::Counter* c = counter_or_null("client.requests")) c->add();
  if (payload.size() > kMaxPayload)
    return Status::invalid_argument(
        std::string(message_type_name(type)) +
        " request payload exceeds frame limit");
  Status last = Status::internal("no attempt made");
  int backoff_ms = options_.backoff_initial_ms;
  const int attempts = std::max(1, options_.max_attempts);
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) {
      // Backoff must respect the caller's budget: an already-expired
      // deadline answers now, and the sleep never outlives what remains.
      if (deadline.expired())
        return Status::deadline_exceeded(
            "deadline expired before retry; last error: " + last.message());
      ++stats_.retries;
      if (obs::Counter* c = counter_or_null("client.retries")) c->add();
      backoff_ms = decorrelated_jitter_ms(backoff_rng_,
                                          options_.backoff_initial_ms,
                                          options_.backoff_max_ms, backoff_ms);
      auto pause = std::chrono::milliseconds(backoff_ms);
      if (!deadline.is_unlimited())
        pause = std::min(
            pause, std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline.remaining()));
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
    // Fast-fail while the endpoint's breaker is open: protect the
    // recovering server (and our own deadline budget) instead of piling
    // on.  Later iterations still backoff, so a half-open probe can be
    // admitted within this same logical request once the cooldown ends.
    if (breaker_ && !breaker_->allow()) {
      ++stats_.breaker_fast_fails;
      if (obs::Counter* c = counter_or_null("client.breaker.fast_fails"))
        c->add();
      last = Status::unavailable("circuit breaker open for " + host_ + ":" +
                                 std::to_string(port_));
      continue;
    }
    const util::Deadline att =
        attempt_deadline(deadline, options_.request_timeout_ms);
    const std::uint64_t opens_before =
        breaker_ ? breaker_->times_opened() : 0;
    last = attempt(type, payload, att, reply);
    if (breaker_) {
      // A typed error reply is a *successful* transport round-trip: the
      // endpoint is alive and speaking protocol, so only a failed attempt
      // records as a breaker failure.
      if (last.is_ok()) {
        breaker_->record_success();
      } else {
        breaker_->record_failure();
        if (breaker_->times_opened() > opens_before) {
          if (obs::Counter* c = counter_or_null("client.breaker.opened"))
            c->add();
        }
      }
    }
    if (last.is_ok()) {
      if (reply->type == MessageType::kRedirectReply) {
        // The peer (a gateway fronting a draining shard, typically) told
        // us where this request should go; retarget and retry there.
        RedirectReplyBody rd;
        if (Status s = decode_redirect_reply(reply->payload, &rd);
            !s.is_ok())
          return s;
        ++stats_.redirects_followed;
        if (obs::Counter* c = counter_or_null("client.redirects")) c->add();
        set_endpoint(rd.host, rd.port);
        last = Status::unavailable("redirected to " + rd.host + ":" +
                                   std::to_string(rd.port));
        continue;
      }
      if (reply->type == MessageType::kErrorReply) {
        ErrorReply err;
        if (Status s = decode_error_reply(reply->payload, &err); !s.is_ok())
          return s;
        last = wire_code_to_status(
            err.code, std::string(wire_code_name(err.code)) +
                          (err.message.empty() ? "" : ": " + err.message));
        // Typed transient rejections (OVERLOADED, SHUTTING_DOWN) retry
        // like transport failures; anything else is final.
        if (last.code() != util::StatusCode::kUnavailable) return last;
        continue;
      }
      if (reply->type != expected_reply) {
        disconnect();
        return Status::internal(
            std::string("unexpected reply type ") +
            message_type_name(reply->type));
      }
      return Status::ok();
    }
    // Only transient transport failures are worth another attempt.
    if (last.code() != util::StatusCode::kUnavailable) return last;
  }
  return last;
}

util::Status AuthClient::ping(std::uint32_t delay_ms,
                              const util::Deadline& deadline,
                              HealthInfo* health) {
  Frame reply;
  if (Status s = round_trip(MessageType::kPingRequest,
                            encode_ping_request(delay_ms), deadline,
                            MessageType::kPingReply, &reply);
      !s.is_ok())
    return s;
  if (health == nullptr) return Status::ok();
  return decode_ping_reply(reply.payload, health);
}

util::Status AuthClient::run_pipeline(
    const std::vector<Challenge>& challenges,
    std::vector<SimulationModel::Prediction>* out,
    const util::Deadline& deadline) {
  ++stats_.attempts;
  if (Status s = ensure_connected(deadline); !s.is_ok()) return s;
  const std::size_t window =
      static_cast<std::size_t>(std::max(1, options_.pipeline_depth));
  // Outstanding request id -> index into `challenges`.  Replies are
  // matched STRICTLY through this map: a reply whose id is absent (a late
  // answer to a request some earlier window abandoned, or a confused
  // peer) must never be attributed to whatever happens to be oldest —
  // that is exactly the late-reply misattribution bug.  Drop the
  // connection instead so the next window starts on a clean stream.
  std::unordered_map<std::uint64_t, std::size_t> outstanding;
  outstanding.reserve(window);
  std::size_t next = 0, answered = 0;
  while (answered < challenges.size()) {
    while (next < challenges.size() && outstanding.size() < window) {
      const std::uint64_t id = next_request_id_++;
      const std::vector<std::uint8_t> frame = encode_frame(
          MessageType::kPredictRequest, id, options_.device_id,
          budget_ms_for(deadline), encode_predict_request(challenges[next]));
      if (Status s = send_all(fd_, frame.data(), frame.size(), deadline);
          !s.is_ok()) {
        disconnect();
        return s;
      }
      outstanding.emplace(id, next);
      ++next;
    }
    Frame reply;
    if (Status s = read_frame(fd_, &reply, deadline); !s.is_ok()) {
      disconnect();
      return s;
    }
    const auto it = outstanding.find(reply.request_id);
    if (it == outstanding.end()) {
      disconnect();
      return Status::unavailable(
          "pipelined reply id " + std::to_string(reply.request_id) +
          " matches no outstanding request; connection resynced");
    }
    const std::size_t index = it->second;
    outstanding.erase(it);
    ++answered;
    if (reply.type == MessageType::kErrorReply) {
      ErrorReply err;
      if (Status s = decode_error_reply(reply.payload, &err); !s.is_ok()) {
        disconnect();
        return s;
      }
      (*out)[index].status = wire_code_to_status(
          err.code, std::string(wire_code_name(err.code)) +
                        (err.message.empty() ? "" : ": " + err.message));
      continue;
    }
    if (reply.type != MessageType::kPredictReply) {
      disconnect();
      return Status::internal(std::string("unexpected reply type ") +
                              message_type_name(reply.type));
    }
    if (Status s = decode_predict_reply(reply.payload, &(*out)[index]);
        !s.is_ok()) {
      disconnect();
      return s;
    }
  }
  return Status::ok();
}

util::Status AuthClient::predict_pipelined(
    const std::vector<Challenge>& challenges,
    std::vector<SimulationModel::Prediction>* out,
    const util::Deadline& deadline) {
  out->assign(challenges.size(), SimulationModel::Prediction{});
  for (SimulationModel::Prediction& p : *out)
    p.status = Status::unavailable("pipelined request not answered");
  if (challenges.empty()) return Status::ok();
  ++stats_.requests;
  if (obs::Counter* c = counter_or_null("client.requests")) c->add();
  if (breaker_ && !breaker_->allow()) {
    ++stats_.breaker_fast_fails;
    if (obs::Counter* c = counter_or_null("client.breaker.fast_fails"))
      c->add();
    return Status::unavailable("circuit breaker open for " + host_ + ":" +
                               std::to_string(port_));
  }
  const util::Deadline att =
      attempt_deadline(deadline, options_.request_timeout_ms);
  const Status s = run_pipeline(challenges, out, att);
  if (breaker_) {
    if (s.is_ok())
      breaker_->record_success();
    else
      breaker_->record_failure();
  }
  return s;
}

util::Status AuthClient::predict(const Challenge& challenge,
                                 SimulationModel::Prediction* out,
                                 const util::Deadline& deadline) {
  Frame reply;
  if (Status s = round_trip(MessageType::kPredictRequest,
                            encode_predict_request(challenge), deadline,
                            MessageType::kPredictReply, &reply);
      !s.is_ok())
    return s;
  return decode_predict_reply(reply.payload, out);
}

util::Status AuthClient::verify(const Challenge& challenge,
                                const protocol::ProverReport& report,
                                protocol::AuthenticationResult* out,
                                const util::Deadline& deadline) {
  Frame reply;
  if (Status s = round_trip(MessageType::kVerifyRequest,
                            encode_verify_request(challenge, report),
                            deadline, MessageType::kVerifyReply, &reply);
      !s.is_ok())
    return s;
  return decode_verify_reply(reply.payload, out);
}

util::Status AuthClient::verify_batch(
    const std::vector<Challenge>& challenges,
    const std::vector<protocol::ProverReport>& reports,
    std::vector<protocol::AuthenticationResult>* out,
    const util::Deadline& deadline) {
  if (challenges.size() != reports.size())
    return Status::invalid_argument(
        "verify_batch: challenges/reports size mismatch");
  Frame reply;
  if (Status s =
          round_trip(MessageType::kVerifyBatchRequest,
                     encode_verify_batch_request(challenges, reports),
                     deadline, MessageType::kVerifyBatchReply, &reply);
      !s.is_ok())
    return s;
  return decode_verify_batch_reply(reply.payload, out);
}

util::Status AuthClient::get_challenge(ChallengeGrant* out,
                                       const util::Deadline& deadline) {
  Frame reply;
  if (Status s = round_trip(MessageType::kChallengeRequest,
                            encode_challenge_request(), deadline,
                            MessageType::kChallengeReply, &reply);
      !s.is_ok())
    return s;
  return decode_challenge_reply(reply.payload, out);
}

util::Status AuthClient::chained_auth(const ChallengeGrant& grant,
                                      const protocol::ChainedReport& report,
                                      protocol::ChainedVerifyResult* out,
                                      const util::Deadline& deadline) {
  ChainedAuthRequest req;
  req.grant = grant;
  req.report = report;
  Frame reply;
  if (Status s = round_trip(MessageType::kChainedAuthRequest,
                            encode_chained_auth_request(req), deadline,
                            MessageType::kChainedAuthReply, &reply);
      !s.is_ok())
    return s;
  return decode_chained_auth_reply(reply.payload, out);
}

util::Status AuthClient::enroll_device(const EnrollRequestBody& spec,
                                       std::uint64_t requested_id,
                                       std::uint64_t* assigned,
                                       const util::Deadline& deadline) {
  // The requested id rides the frame header so a gateway routes the
  // enrollment like any other frame; stamp it for this round trip only.
  const std::uint64_t saved = options_.device_id;
  options_.device_id = requested_id;
  Frame reply;
  const Status s =
      round_trip(MessageType::kEnrollRequest, encode_enroll_request(spec),
                 deadline, MessageType::kEnrollReply, &reply);
  options_.device_id = saved;
  if (!s.is_ok()) return s;
  EnrollReplyBody body;
  if (Status d = decode_enroll_reply(reply.payload, &body); !d.is_ok())
    return d;
  if (assigned != nullptr) *assigned = body.device_id;
  return Status::ok();
}

util::Status AuthClient::admin(const AdminRequestBody& request,
                               AdminReplyBody* out,
                               const util::Deadline& deadline) {
  Frame reply;
  if (Status s = round_trip(MessageType::kAdminRequest,
                            encode_admin_request(request), deadline,
                            MessageType::kAdminReply, &reply);
      !s.is_ok())
    return s;
  return decode_admin_reply(reply.payload, out);
}

util::Status AuthClient::wal_fetch(const WalFetchRequestBody& request,
                                   WalSegmentBody* out,
                                   const util::Deadline& deadline) {
  Frame reply;
  if (Status s = round_trip(MessageType::kWalFetchRequest,
                            encode_wal_fetch_request(request), deadline,
                            MessageType::kWalSegmentReply, &reply);
      !s.is_ok())
    return s;
  return decode_wal_segment_reply(reply.payload, out);
}

}  // namespace ppuf::net
