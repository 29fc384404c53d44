#include "net/wire.hpp"

#include <algorithm>
#include <chrono>

#include "net/socket.hpp"

namespace ppuf::net {

namespace {

using protocol::codec::Reader;
using protocol::codec::Writer;
using util::Status;

Status malformed(const char* what) {
  return Status::invalid_argument(std::string("malformed ") + what);
}

/// Shared epilogue: a payload decoder must consume its bytes exactly.
Status finish(const Reader& r, const char* what) {
  if (!r.exhausted()) return malformed(what);
  return Status::ok();
}

}  // namespace

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kPingRequest: return "PING";
    case MessageType::kPredictRequest: return "PREDICT";
    case MessageType::kVerifyRequest: return "VERIFY";
    case MessageType::kVerifyBatchRequest: return "VERIFY_BATCH";
    case MessageType::kChallengeRequest: return "CHALLENGE";
    case MessageType::kChainedAuthRequest: return "CHAINED_AUTH";
    case MessageType::kEnrollRequest: return "ENROLL";
    case MessageType::kAdminRequest: return "ADMIN";
    case MessageType::kWalFetchRequest: return "WAL_FETCH";
    case MessageType::kErrorReply: return "ERROR_REPLY";
    case MessageType::kPingReply: return "PING_REPLY";
    case MessageType::kPredictReply: return "PREDICT_REPLY";
    case MessageType::kVerifyReply: return "VERIFY_REPLY";
    case MessageType::kVerifyBatchReply: return "VERIFY_BATCH_REPLY";
    case MessageType::kChallengeReply: return "CHALLENGE_REPLY";
    case MessageType::kChainedAuthReply: return "CHAINED_AUTH_REPLY";
    case MessageType::kEnrollReply: return "ENROLL_REPLY";
    case MessageType::kAdminReply: return "ADMIN_REPLY";
    case MessageType::kWalSegmentReply: return "WAL_SEGMENT_REPLY";
    case MessageType::kRedirectReply: return "REDIRECT_REPLY";
  }
  return "UNKNOWN";
}

bool is_request(MessageType type) {
  switch (type) {
    case MessageType::kPingRequest:
    case MessageType::kPredictRequest:
    case MessageType::kVerifyRequest:
    case MessageType::kVerifyBatchRequest:
    case MessageType::kChallengeRequest:
    case MessageType::kChainedAuthRequest:
    case MessageType::kEnrollRequest:
    case MessageType::kAdminRequest:
    case MessageType::kWalFetchRequest:
      return true;
    default:
      return false;
  }
}

const char* wire_code_name(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "OK";
    case WireCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case WireCode::kMalformed: return "MALFORMED";
    case WireCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireCode::kCancelled: return "CANCELLED";
    case WireCode::kOverloaded: return "OVERLOADED";
    case WireCode::kShuttingDown: return "SHUTTING_DOWN";
    case WireCode::kUnsupportedType: return "UNSUPPORTED_TYPE";
    case WireCode::kInternal: return "INTERNAL";
    case WireCode::kUnknownDevice: return "UNKNOWN_DEVICE";
    case WireCode::kShardUnavailable: return "SHARD_UNAVAILABLE";
  }
  return "UNKNOWN";
}

util::Status wire_code_to_status(WireCode code, const std::string& message) {
  switch (code) {
    case WireCode::kOk:
      return Status::ok();
    case WireCode::kDeadlineExceeded:
      return Status::deadline_exceeded(message);
    case WireCode::kCancelled:
      return Status::cancelled(message);
    case WireCode::kOverloaded:
    case WireCode::kShuttingDown:
    case WireCode::kShardUnavailable:
      // Retryable: the shard may come back, or a re-resolve may route the
      // id to its promoted standby.
      return Status::unavailable(message);
    case WireCode::kInvalidArgument:
    case WireCode::kMalformed:
    case WireCode::kUnsupportedType:
      return Status::invalid_argument(message);
    case WireCode::kInternal:
      return Status::internal(message);
    case WireCode::kUnknownDevice:
      // NOT retryable: the id is wrong (or revoked), and retrying the same
      // id can only get the same answer.
      return Status::not_found(message);
  }
  return Status::internal(message);
}

std::uint32_t budget_ms_for(const util::Deadline& deadline) {
  if (deadline.is_unlimited()) return 0;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline.remaining());
  const auto ms = std::max<std::chrono::milliseconds::rep>(1, left.count());
  return static_cast<std::uint32_t>(
      std::min<std::chrono::milliseconds::rep>(ms, 0xffffffffu));
}

std::vector<std::uint8_t> encode_frame(
    MessageType type, std::uint64_t request_id, std::uint64_t device_id,
    std::uint32_t budget_ms, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    // A frame the peer is guaranteed to reject as unparseable (oversized
    // length, or a silently truncated u32 beyond 4 GiB) desynchronises the
    // stream and drops the connection.  Degrade to a typed error carrying
    // the same request id so the sender fails loudly instead.
    ErrorReply err;
    err.code = WireCode::kInternal;
    err.message = std::string(message_type_name(type)) +
                  " payload exceeds frame limit";
    return encode_frame(MessageType::kErrorReply, request_id, device_id,
                        budget_ms, encode_error_reply(err));
  }
  Writer w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(request_id);
  w.u64(device_id);
  w.u32(budget_ms);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload.data(), payload.size());
  return w.take();
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t size,
                          Frame* out, std::size_t* consumed) {
  if (size < kHeaderSize) return DecodeResult::kNeedMore;
  Reader r(data, kHeaderSize);
  std::uint32_t magic = 0, payload_len = 0;
  std::uint16_t version = 0, type_raw = 0;
  std::uint64_t request_id = 0, device_id = 0;
  std::uint32_t budget_ms = 0;
  r.u32(&magic);
  r.u16(&version);
  r.u16(&type_raw);
  r.u64(&request_id);
  r.u64(&device_id);
  r.u32(&budget_ms);
  r.u32(&payload_len);
  if (magic != kWireMagic || version != kWireVersion ||
      payload_len > kMaxPayload)
    return DecodeResult::kMalformed;
  const std::size_t total = kHeaderSize + payload_len;
  if (size < total) return DecodeResult::kNeedMore;
  out->version = version;
  out->type = static_cast<MessageType>(type_raw);
  out->request_id = request_id;
  out->device_id = device_id;
  out->budget_ms = budget_ms;
  out->payload.assign(data + kHeaderSize, data + total);
  *consumed = total;
  return DecodeResult::kOk;
}

util::Status read_frame(int fd, Frame* out, const util::Deadline& deadline) {
  std::vector<std::uint8_t> buf(kHeaderSize);
  if (Status s = recv_exact(fd, buf.data(), buf.size(), deadline);
      !s.is_ok())
    return s;
  // Peek the payload length out of the fixed header so we know how many
  // more bytes to read; full validation happens in decode_frame below.
  Reader r(buf.data(), buf.size());
  std::uint32_t magic = 0, payload_len = 0, budget = 0;
  std::uint16_t version = 0, type_raw = 0;
  std::uint64_t reply_id = 0, reply_device = 0;
  r.u32(&magic);
  r.u16(&version);
  r.u16(&type_raw);
  r.u64(&reply_id);
  r.u64(&reply_device);
  r.u32(&budget);
  r.u32(&payload_len);
  if (magic != kWireMagic || version != kWireVersion ||
      payload_len > kMaxPayload)
    return Status::internal("peer sent an unparseable frame header");
  buf.resize(kHeaderSize + payload_len);
  if (payload_len > 0) {
    if (Status s =
            recv_exact(fd, buf.data() + kHeaderSize, payload_len, deadline);
        !s.is_ok())
      return s;
  }
  std::size_t consumed = 0;
  if (decode_frame(buf.data(), buf.size(), out, &consumed) !=
      DecodeResult::kOk)
    return Status::internal("peer sent an unparseable frame");
  return Status::ok();
}

// --- typed payloads -------------------------------------------------------

std::vector<std::uint8_t> encode_error_reply(const ErrorReply& e) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(e.code));
  w.str(e.message);
  return w.take();
}

std::vector<std::uint8_t> error_frame(std::uint64_t request_id,
                                      std::uint64_t device_id, WireCode code,
                                      std::string message) {
  ErrorReply err;
  err.code = code;
  err.message = std::move(message);
  return encode_frame(MessageType::kErrorReply, request_id, device_id, 0,
                      encode_error_reply(err));
}

util::Status decode_error_reply(const std::vector<std::uint8_t>& payload,
                                ErrorReply* out) {
  Reader r(payload.data(), payload.size());
  std::uint16_t code = 0;
  if (!r.u16(&code) ||
      code > static_cast<std::uint16_t>(WireCode::kShardUnavailable) ||
      !r.str(&out->message))
    return malformed("error reply");
  out->code = static_cast<WireCode>(code);
  return finish(r, "error reply");
}

std::vector<std::uint8_t> encode_ping_request(std::uint32_t delay_ms) {
  Writer w;
  w.u32(delay_ms);
  return w.take();
}

util::Status decode_ping_request(const std::vector<std::uint8_t>& payload,
                                 std::uint32_t* delay_ms) {
  Reader r(payload.data(), payload.size());
  if (!r.u32(delay_ms)) return malformed("ping request");
  return finish(r, "ping request");
}

std::vector<std::uint8_t> encode_ping_reply(const HealthInfo& h) {
  Writer w;
  w.u32(h.inflight);
  w.u32(h.max_inflight);
  w.u8(h.draining);
  w.u64(h.requests_served);
  w.u64(h.connections_accepted);
  w.u64(h.device_count);
  w.u64(h.wal_epoch);
  w.u64(h.wal_offset);
  return w.take();
}

util::Status decode_ping_reply(const std::vector<std::uint8_t>& payload,
                               HealthInfo* out) {
  *out = HealthInfo{};
  if (payload.empty()) return Status::ok();  // pre-health servers
  Reader r(payload.data(), payload.size());
  if (!r.u32(&out->inflight) || !r.u32(&out->max_inflight) ||
      !r.u8(&out->draining) || !r.u64(&out->requests_served) ||
      !r.u64(&out->connections_accepted))
    return malformed("ping reply");
  // Pre-fleet servers stop here; the fleet fields default to zero.
  if (r.exhausted()) return Status::ok();
  if (!r.u64(&out->device_count) || !r.u64(&out->wal_epoch) ||
      !r.u64(&out->wal_offset))
    return malformed("ping reply");
  return finish(r, "ping reply");
}

std::vector<std::uint8_t> encode_predict_request(const Challenge& c) {
  Writer w;
  protocol::codec::encode_challenge(w, c);
  return w.take();
}

util::Status decode_predict_request(const std::vector<std::uint8_t>& payload,
                                    Challenge* out) {
  Reader r(payload.data(), payload.size());
  if (Status s = protocol::codec::decode_challenge(r, out); !s.is_ok())
    return s;
  return finish(r, "predict request");
}

std::vector<std::uint8_t> encode_predict_reply(
    const SimulationModel::Prediction& p) {
  Writer w;
  protocol::codec::encode_prediction(w, p);
  return w.take();
}

util::Status decode_predict_reply(const std::vector<std::uint8_t>& payload,
                                  SimulationModel::Prediction* out) {
  Reader r(payload.data(), payload.size());
  if (Status s = protocol::codec::decode_prediction(r, out); !s.is_ok())
    return s;
  return finish(r, "predict reply");
}

std::vector<std::uint8_t> encode_verify_request(
    const Challenge& c, const protocol::ProverReport& report) {
  Writer w;
  protocol::codec::encode_challenge(w, c);
  protocol::codec::encode_prover_report(w, report);
  return w.take();
}

util::Status decode_verify_request(const std::vector<std::uint8_t>& payload,
                                   Challenge* c,
                                   protocol::ProverReport* report) {
  Reader r(payload.data(), payload.size());
  if (Status s = protocol::codec::decode_challenge(r, c); !s.is_ok())
    return s;
  if (Status s = protocol::codec::decode_prover_report(r, report);
      !s.is_ok())
    return s;
  return finish(r, "verify request");
}

std::vector<std::uint8_t> encode_verify_reply(
    const protocol::AuthenticationResult& res) {
  Writer w;
  protocol::codec::encode_auth_result(w, res);
  return w.take();
}

util::Status decode_verify_reply(const std::vector<std::uint8_t>& payload,
                                 protocol::AuthenticationResult* out) {
  Reader r(payload.data(), payload.size());
  if (Status s = protocol::codec::decode_auth_result(r, out); !s.is_ok())
    return s;
  return finish(r, "verify reply");
}

std::vector<std::uint8_t> encode_verify_batch_request(
    const std::vector<Challenge>& challenges,
    const std::vector<protocol::ProverReport>& reports) {
  // Bounded by BOTH vectors: a mismatched caller gets the common prefix,
  // not an out-of-bounds read.
  const std::size_t n = std::min(challenges.size(), reports.size());
  Writer w;
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    protocol::codec::encode_challenge(w, challenges[i]);
    protocol::codec::encode_prover_report(w, reports[i]);
  }
  return w.take();
}

util::Status decode_verify_batch_request(
    const std::vector<std::uint8_t>& payload,
    std::vector<Challenge>* challenges,
    std::vector<protocol::ProverReport>* reports) {
  Reader r(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!r.u32(&count)) return malformed("verify batch request");
  // An item is at least ~52 bytes (12-byte minimal challenge + 40-byte
  // minimal report); 52 defeats forged counts without being tight.
  if (static_cast<std::size_t>(count) > r.remaining() / 52)
    return malformed("verify batch count");
  challenges->clear();
  reports->clear();
  challenges->reserve(count);
  reports->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Challenge c;
    protocol::ProverReport report;
    if (Status s = protocol::codec::decode_challenge(r, &c); !s.is_ok())
      return s;
    if (Status s = protocol::codec::decode_prover_report(r, &report);
        !s.is_ok())
      return s;
    challenges->push_back(std::move(c));
    reports->push_back(std::move(report));
  }
  return finish(r, "verify batch request");
}

std::vector<std::uint8_t> encode_verify_batch_reply(
    const std::vector<protocol::AuthenticationResult>& results) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const auto& res : results) protocol::codec::encode_auth_result(w, res);
  return w.take();
}

util::Status decode_verify_batch_reply(
    const std::vector<std::uint8_t>& payload,
    std::vector<protocol::AuthenticationResult>* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!r.u32(&count) ||
      static_cast<std::size_t>(count) > r.remaining() / 8)
    return malformed("verify batch reply");
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    protocol::AuthenticationResult res;
    if (Status s = protocol::codec::decode_auth_result(r, &res); !s.is_ok())
      return s;
    out->push_back(std::move(res));
  }
  return finish(r, "verify batch reply");
}

std::vector<std::uint8_t> encode_challenge_request() { return {}; }

util::Status decode_challenge_request(
    const std::vector<std::uint8_t>& payload) {
  if (!payload.empty()) return malformed("challenge request");
  return Status::ok();
}

std::vector<std::uint8_t> encode_challenge_reply(const ChallengeGrant& g) {
  Writer w;
  protocol::codec::encode_challenge(w, g.challenge);
  w.u32(g.chain_length);
  w.u64(g.nonce);
  w.f64(g.deadline_seconds);
  return w.take();
}

util::Status decode_challenge_reply(const std::vector<std::uint8_t>& payload,
                                    ChallengeGrant* out) {
  Reader r(payload.data(), payload.size());
  if (Status s = protocol::codec::decode_challenge(r, &out->challenge);
      !s.is_ok())
    return s;
  if (!r.u32(&out->chain_length) || out->chain_length == 0 ||
      !r.u64(&out->nonce) || !r.f64(&out->deadline_seconds))
    return malformed("challenge reply");
  return finish(r, "challenge reply");
}

std::vector<std::uint8_t> encode_chained_auth_request(
    const ChainedAuthRequest& req) {
  Writer w;
  protocol::codec::encode_challenge(w, req.grant.challenge);
  w.u32(req.grant.chain_length);
  w.u64(req.grant.nonce);
  w.f64(req.grant.deadline_seconds);
  protocol::codec::encode_chained_report(w, req.report);
  return w.take();
}

util::Status decode_chained_auth_request(
    const std::vector<std::uint8_t>& payload, ChainedAuthRequest* out) {
  Reader r(payload.data(), payload.size());
  if (Status s =
          protocol::codec::decode_challenge(r, &out->grant.challenge);
      !s.is_ok())
    return s;
  if (!r.u32(&out->grant.chain_length) || out->grant.chain_length == 0 ||
      !r.u64(&out->grant.nonce) || !r.f64(&out->grant.deadline_seconds))
    return malformed("chained auth grant");
  if (Status s = protocol::codec::decode_chained_report(r, &out->report);
      !s.is_ok())
    return s;
  return finish(r, "chained auth request");
}

std::vector<std::uint8_t> encode_chained_auth_reply(
    const protocol::ChainedVerifyResult& res) {
  Writer w;
  protocol::codec::encode_chained_result(w, res);
  return w.take();
}

util::Status decode_chained_auth_reply(
    const std::vector<std::uint8_t>& payload,
    protocol::ChainedVerifyResult* out) {
  Reader r(payload.data(), payload.size());
  if (Status s = protocol::codec::decode_chained_result(r, out); !s.is_ok())
    return s;
  return finish(r, "chained auth reply");
}

// --- fleet payloads -------------------------------------------------------

std::vector<std::uint8_t> encode_enroll_request(const EnrollRequestBody& e) {
  Writer w;
  w.u32(e.node_count);
  w.u32(e.grid_size);
  w.u64(e.fabrication_seed);
  w.str(e.label);
  w.u8(e.backend);
  return w.take();
}

util::Status decode_enroll_request(const std::vector<std::uint8_t>& payload,
                                   EnrollRequestBody* out) {
  Reader r(payload.data(), payload.size());
  if (!r.u32(&out->node_count) || !r.u32(&out->grid_size) ||
      !r.u64(&out->fabrication_seed) || !r.str(&out->label))
    return malformed("enroll request");
  // Optional trailing backend byte (same evolution pattern as ping_reply):
  // a v1 frame ends after the label and means max-flow.
  out->backend = 1;
  if (r.remaining() > 0) {
    if (!r.u8(&out->backend) || out->backend == 0)
      return malformed("enroll request backend");
  }
  // Geometry sanity.  Max-flow mirrors registry::EnrollRequest validation,
  // so a forged request never reaches the fabricator; other backends use
  // different geometry units, so the wire only rejects zeros and leaves
  // full validation to the registry's backend dispatch.
  if (out->backend == 1) {
    if (out->node_count < 2 || out->grid_size == 0 ||
        out->grid_size > out->node_count)
      return malformed("enroll request geometry");
  } else if (out->node_count == 0 || out->grid_size == 0) {
    return malformed("enroll request geometry");
  }
  return finish(r, "enroll request");
}

std::vector<std::uint8_t> encode_enroll_reply(const EnrollReplyBody& e) {
  Writer w;
  w.u64(e.device_id);
  return w.take();
}

util::Status decode_enroll_reply(const std::vector<std::uint8_t>& payload,
                                 EnrollReplyBody* out) {
  Reader r(payload.data(), payload.size());
  if (!r.u64(&out->device_id) || out->device_id == 0)
    return malformed("enroll reply");
  return finish(r, "enroll reply");
}

std::vector<std::uint8_t> encode_admin_request(const AdminRequestBody& a) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(a.op));
  w.str(a.shard);
  w.str(a.host);
  w.u16(a.port);
  return w.take();
}

util::Status decode_admin_request(const std::vector<std::uint8_t>& payload,
                                  AdminRequestBody* out) {
  Reader r(payload.data(), payload.size());
  std::uint8_t op = 0;
  if (!r.u8(&op) ||
      op < static_cast<std::uint8_t>(AdminOp::kStatus) ||
      op > static_cast<std::uint8_t>(AdminOp::kRemoveShard) ||
      !r.str(&out->shard) || !r.str(&out->host) || !r.u16(&out->port))
    return malformed("admin request");
  out->op = static_cast<AdminOp>(op);
  return finish(r, "admin request");
}

std::vector<std::uint8_t> encode_admin_reply(const AdminReplyBody& a) {
  Writer w;
  w.u8(a.ok);
  w.str(a.message);
  w.u32(static_cast<std::uint32_t>(a.shards.size()));
  for (const ShardStatus& s : a.shards) {
    w.str(s.name);
    w.str(s.host);
    w.u16(s.port);
    w.u8(s.state);
    w.u8(s.draining);
    w.u64(s.inflight);
    w.u64(s.pinned_sessions);
    w.u64(s.forwarded);
    w.u64(s.device_count);
    w.u64(s.wal_epoch);
    w.u64(s.wal_offset);
  }
  return w.take();
}

util::Status decode_admin_reply(const std::vector<std::uint8_t>& payload,
                                AdminReplyBody* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!r.u8(&out->ok) || !r.str(&out->message) || !r.u32(&count))
    return malformed("admin reply");
  // A shard entry is at least 60 bytes (three length-prefixed strings of
  // 4 bytes each + the fixed fields); defeats forged counts.
  if (static_cast<std::size_t>(count) > r.remaining() / 60)
    return malformed("admin reply shard count");
  out->shards.clear();
  out->shards.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ShardStatus s;
    if (!r.str(&s.name) || !r.str(&s.host) || !r.u16(&s.port) ||
        !r.u8(&s.state) || !r.u8(&s.draining) || !r.u64(&s.inflight) ||
        !r.u64(&s.pinned_sessions) || !r.u64(&s.forwarded) ||
        !r.u64(&s.device_count) || !r.u64(&s.wal_epoch) ||
        !r.u64(&s.wal_offset))
      return malformed("admin reply shard");
    out->shards.push_back(std::move(s));
  }
  return finish(r, "admin reply");
}

std::vector<std::uint8_t> encode_wal_fetch_request(
    const WalFetchRequestBody& f) {
  Writer w;
  w.u64(f.epoch);
  w.u64(f.offset);
  w.u32(f.max_bytes);
  return w.take();
}

util::Status decode_wal_fetch_request(
    const std::vector<std::uint8_t>& payload, WalFetchRequestBody* out) {
  Reader r(payload.data(), payload.size());
  if (!r.u64(&out->epoch) || !r.u64(&out->offset) || !r.u32(&out->max_bytes))
    return malformed("wal fetch request");
  return finish(r, "wal fetch request");
}

std::vector<std::uint8_t> encode_wal_segment_reply(const WalSegmentBody& s) {
  Writer w;
  w.u8(s.bootstrap);
  w.u64(s.epoch);
  w.u64(s.next_offset);
  w.u32(static_cast<std::uint32_t>(s.bytes.size()));
  w.raw(s.bytes.data(), s.bytes.size());
  return w.take();
}

util::Status decode_wal_segment_reply(
    const std::vector<std::uint8_t>& payload, WalSegmentBody* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t len = 0;
  if (!r.u8(&out->bootstrap) || out->bootstrap > 1 || !r.u64(&out->epoch) ||
      !r.u64(&out->next_offset) || !r.u32(&len) || len != r.remaining())
    return malformed("wal segment reply");
  const std::uint8_t* tail = payload.data() + (payload.size() - len);
  out->bytes.assign(tail, tail + len);
  return Status::ok();
}

std::vector<std::uint8_t> encode_redirect_reply(const RedirectReplyBody& rr) {
  Writer w;
  w.str(rr.host);
  w.u16(rr.port);
  w.str(rr.shard);
  w.str(rr.message);
  return w.take();
}

util::Status decode_redirect_reply(const std::vector<std::uint8_t>& payload,
                                   RedirectReplyBody* out) {
  Reader r(payload.data(), payload.size());
  if (!r.str(&out->host) || !r.u16(&out->port) || out->port == 0 ||
      out->host.empty() || !r.str(&out->shard) || !r.str(&out->message))
    return malformed("redirect reply");
  return finish(r, "redirect reply");
}

}  // namespace ppuf::net
