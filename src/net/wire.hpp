// Framed wire protocol of the authentication service.
//
// Every message is one frame:
//
//   offset  size  field
//        0     4  magic          "PPUF" (0x46 0x55 0x50 0x50 on the wire —
//                                little-endian u32 of 'P','P','U','F')
//        4     2  version        kWireVersion (2)
//        6     2  type           MessageType
//        8     8  request_id     echoed verbatim in the reply
//       16     8  device_id      registry device the request addresses;
//                                0 = the server's single implicit device
//       24     4  budget_ms      per-request deadline budget; 0 = unlimited
//       28     4  payload_len    bytes following the header (<= kMaxPayload)
//       32     …  payload        protocol::codec bytes, per message type
//
// The header is fixed at kHeaderSize bytes.  budget_ms travels in the
// header (not the payload) so deadline propagation is uniform across every
// request type: the client converts its absolute Deadline into a relative
// budget with Deadline::remaining(), the server re-anchors it on arrival.
// device_id travels in the header for the same reason: multi-tenant
// routing is uniform across every request type, and replies echo the id so
// a client multiplexing devices over one connection can correlate.
// Version history: v1 had no device_id (24-byte header); v2 inserted it.
// Decoders accept exactly kWireVersion — there are no v1 peers to keep
// compatible with, and a version mismatch must fail loudly, not half-work.
//
// decode_frame() is incremental and strict: it reports kNeedMore until a
// whole frame is buffered, and kMalformed on a bad magic, unknown version,
// or oversized payload — at which point the stream is unsynchronised and
// the connection must be closed (after a best-effort typed error reply).
// Payload decoders additionally require the payload to be consumed exactly
// (no trailing bytes), so two frames can never blur together.
#pragma once

#include <cstdint>
#include <vector>

#include "ppuf/challenge.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "protocol/codec.hpp"
#include "util/status.hpp"

namespace ppuf::net {

inline constexpr std::uint32_t kWireMagic =
    0x46555050u;  // 'P' 'P' 'U' 'F' little-endian
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kHeaderSize = 32;
/// Header device id that is never a device: registries assign ids from 1,
/// so a request that addresses a device gets UNKNOWN_DEVICE on it.  PING
/// still answers (it is transport-level), and ENROLL reads it as "assign
/// the next free id".
inline constexpr std::uint64_t kDefaultDeviceId = 0;
/// Hard payload bound; a forged length cannot make the server buffer more.
inline constexpr std::uint32_t kMaxPayload = 16u * 1024 * 1024;

enum class MessageType : std::uint16_t {
  // requests
  kPingRequest = 1,
  kPredictRequest = 2,
  kVerifyRequest = 3,
  kVerifyBatchRequest = 4,
  kChallengeRequest = 5,
  kChainedAuthRequest = 6,
  kEnrollRequest = 7,    ///< enroll a device into the server's registry
  kAdminRequest = 8,     ///< gateway fleet administration (add/drain/…)
  kWalFetchRequest = 9,  ///< standby pulling registry WAL bytes
  // replies (request type + 100)
  kErrorReply = 100,
  kPingReply = 101,
  kPredictReply = 102,
  kVerifyReply = 103,
  kVerifyBatchReply = 104,
  kChallengeReply = 105,
  kChainedAuthReply = 106,
  kEnrollReply = 107,
  kAdminReply = 108,
  kWalSegmentReply = 109,
  /// Out-of-band reply to ANY request: "re-resolve and talk to this
  /// endpoint instead".  A gateway emits it for a draining shard that has
  /// a configured successor; AuthClient follows it transparently.
  kRedirectReply = 110,
};

const char* message_type_name(MessageType type);
bool is_request(MessageType type);

/// Typed failure codes carried by kErrorReply.  These are the service's
/// contract: an overloaded or draining server *answers* (it never silently
/// drops a connection that spoke valid frames).
enum class WireCode : std::uint16_t {
  kOk = 0,
  kInvalidArgument = 1,   ///< well-framed but semantically bad request
  kMalformed = 2,         ///< undecodable payload / broken framing
  kDeadlineExceeded = 3,  ///< budget_ms expired before or during the work
  kCancelled = 4,
  kOverloaded = 5,        ///< admission control rejected; retry later
  kShuttingDown = 6,      ///< server draining; retry elsewhere/later
  kUnsupportedType = 7,   ///< unknown request type for this version
  kInternal = 8,
  kUnknownDevice = 9,     ///< device_id not enrolled, or revoked
  kShardUnavailable = 10, ///< gateway: the shard owning this id is down or
                          ///< draining; re-resolve and retry
};

const char* wire_code_name(WireCode code);
/// Client-side mapping into the project-wide Status vocabulary
/// (kOverloaded / kShuttingDown become kUnavailable, i.e. retryable).
util::Status wire_code_to_status(WireCode code, const std::string& message);

struct Frame {
  std::uint16_t version = kWireVersion;
  MessageType type = MessageType::kPingRequest;
  std::uint64_t request_id = 0;
  std::uint64_t device_id = kDefaultDeviceId;
  std::uint32_t budget_ms = 0;  ///< 0 = unlimited
  std::vector<std::uint8_t> payload;

  /// Re-anchor the relative budget as an absolute deadline at the
  /// receiver.  0 = unlimited.
  util::Deadline deadline() const {
    return budget_ms == 0 ? util::Deadline::unlimited()
                          : util::Deadline::after_seconds(budget_ms * 1e-3);
  }
};

/// The inverse of Frame::deadline(): a deadline's remaining budget as a
/// header budget_ms.  Unlimited is 0; a sub-millisecond remainder rounds
/// up to 1 so "expired on the sender" and "unlimited on the wire" can
/// never be confused.
std::uint32_t budget_ms_for(const util::Deadline& deadline);

/// Serialise a complete frame (header + payload).  A payload over
/// kMaxPayload is never framed (the peer would reject it and drop the
/// connection); it is replaced by a kErrorReply frame (kInternal) with the
/// same request id so the failure stays typed and in-band.
std::vector<std::uint8_t> encode_frame(MessageType type,
                                       std::uint64_t request_id,
                                       std::uint64_t device_id,
                                       std::uint32_t budget_ms,
                                       const std::vector<std::uint8_t>&
                                           payload);

enum class DecodeResult {
  kOk,        ///< one frame extracted; *consumed bytes were used
  kNeedMore,  ///< buffer holds a frame prefix; read more bytes
  kMalformed, ///< stream is broken; close the connection
};

/// Try to extract one frame from the front of [data, data+size).  On kOk,
/// `*out` holds the frame and `*consumed` the bytes to drop from the
/// buffer.  Never reads past `size`.
DecodeResult decode_frame(const std::uint8_t* data, std::size_t size,
                          Frame* out, std::size_t* consumed);

/// Blocking receive of exactly one frame from `fd`: header, then payload,
/// both bounded by `deadline`.  Transport failures pass through from the
/// socket layer (kUnavailable / kDeadlineExceeded); an unparseable header
/// or frame returns kInternal, at which point the stream cannot be
/// resynchronised and the caller must drop the connection.  This is the
/// single client-side read path — the synchronous round trip, the
/// pipelined window, and raw-socket tests all read replies through it, so
/// framing bugs cannot hide in one copy of the peek logic.
util::Status read_frame(int fd, Frame* out, const util::Deadline& deadline);

// --- typed payloads -------------------------------------------------------
//
// One encode/decode pair per message type.  Decoders return
// kInvalidArgument on any malformed byte and reject trailing garbage.

struct ErrorReply {
  WireCode code = WireCode::kInternal;
  std::string message;
};

struct ChallengeGrant {
  Challenge challenge;           ///< first challenge of the chain
  std::uint32_t chain_length = 1;
  std::uint64_t nonce = 0;       ///< protocol nonce for the successor fn
  double deadline_seconds = 0.0; ///< verifier's response-time budget
};

struct ChainedAuthRequest {
  ChallengeGrant grant;               ///< echoed grant being answered
  protocol::ChainedReport report;
};

std::vector<std::uint8_t> encode_error_reply(const ErrorReply& e);
/// A whole kErrorReply frame.  It echoes the request's device id so a
/// client multiplexing devices over one connection can attribute the
/// failure.
std::vector<std::uint8_t> error_frame(std::uint64_t request_id,
                                      std::uint64_t device_id, WireCode code,
                                      std::string message);
util::Status decode_error_reply(const std::vector<std::uint8_t>& payload,
                                ErrorReply* out);

std::vector<std::uint8_t> encode_ping_request(std::uint32_t delay_ms);
util::Status decode_ping_request(const std::vector<std::uint8_t>& payload,
                                 std::uint32_t* delay_ms);

/// Health/readiness report carried in every PING reply: enough for a load
/// balancer (or the chaos campaign) to see saturation and drain state
/// without a separate admin channel.
struct HealthInfo {
  std::uint32_t inflight = 0;        ///< requests currently being served
  std::uint32_t max_inflight = 0;    ///< admission-control ceiling
  std::uint8_t draining = 0;         ///< 1 once a drain has been requested
  std::uint64_t requests_served = 0;
  std::uint64_t connections_accepted = 0;
  // Fleet extension (absent on pre-fleet servers; decodes to zeros):
  std::uint64_t device_count = 0;    ///< active devices in the registry
  std::uint64_t wal_epoch = 0;       ///< registry WAL epoch (0 = no registry)
  std::uint64_t wal_offset = 0;      ///< committed WAL byte offset
};

std::vector<std::uint8_t> encode_ping_reply(const HealthInfo& h);
/// Strict decode; an *empty* payload is accepted as all-defaults so a
/// new client can still ping a pre-health server, and the 25-byte
/// pre-fleet body is accepted with the fleet fields defaulted to zero.
util::Status decode_ping_reply(const std::vector<std::uint8_t>& payload,
                               HealthInfo* out);

std::vector<std::uint8_t> encode_predict_request(const Challenge& c);
util::Status decode_predict_request(const std::vector<std::uint8_t>& payload,
                                    Challenge* out);

std::vector<std::uint8_t> encode_predict_reply(
    const SimulationModel::Prediction& p);
util::Status decode_predict_reply(const std::vector<std::uint8_t>& payload,
                                  SimulationModel::Prediction* out);

std::vector<std::uint8_t> encode_verify_request(
    const Challenge& c, const protocol::ProverReport& report);
util::Status decode_verify_request(const std::vector<std::uint8_t>& payload,
                                   Challenge* c,
                                   protocol::ProverReport* report);

std::vector<std::uint8_t> encode_verify_reply(
    const protocol::AuthenticationResult& r);
util::Status decode_verify_reply(const std::vector<std::uint8_t>& payload,
                                 protocol::AuthenticationResult* out);

std::vector<std::uint8_t> encode_verify_batch_request(
    const std::vector<Challenge>& challenges,
    const std::vector<protocol::ProverReport>& reports);
util::Status decode_verify_batch_request(
    const std::vector<std::uint8_t>& payload,
    std::vector<Challenge>* challenges,
    std::vector<protocol::ProverReport>* reports);

std::vector<std::uint8_t> encode_verify_batch_reply(
    const std::vector<protocol::AuthenticationResult>& results);
util::Status decode_verify_batch_reply(
    const std::vector<std::uint8_t>& payload,
    std::vector<protocol::AuthenticationResult>* out);

std::vector<std::uint8_t> encode_challenge_request();
util::Status decode_challenge_request(
    const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_challenge_reply(const ChallengeGrant& g);
util::Status decode_challenge_reply(const std::vector<std::uint8_t>& payload,
                                    ChallengeGrant* out);

std::vector<std::uint8_t> encode_chained_auth_request(
    const ChainedAuthRequest& req);
util::Status decode_chained_auth_request(
    const std::vector<std::uint8_t>& payload, ChainedAuthRequest* out);

std::vector<std::uint8_t> encode_chained_auth_reply(
    const protocol::ChainedVerifyResult& r);
util::Status decode_chained_auth_reply(
    const std::vector<std::uint8_t>& payload,
    protocol::ChainedVerifyResult* out);

// --- fleet payloads -------------------------------------------------------
//
// The requested device id travels in the FRAME HEADER (device_id), not in
// this payload, so a gateway consistent-hashes enrollments exactly like
// every other frame.  Header id 0 means "assign the next free id" and is
// only meaningful direct-to-shard; a gateway rejects it (it cannot route
// an id it does not know yet).
struct EnrollRequestBody {
  std::uint32_t node_count = 0;
  std::uint32_t grid_size = 0;
  std::uint64_t fabrication_seed = 0;
  std::string label;
  /// Backend tag (backend::BackendKind byte; 1 = max-flow).  Optional
  /// trailing field on the wire: v1 frames end after `label` and decode
  /// as max-flow, v2 frames append one byte.  0 is rejected.  Unknown
  /// non-zero values pass wire decode — the server answers them with a
  /// typed kInvalidArgument, not a frame error, so old servers and new
  /// clients fail cleanly.
  std::uint8_t backend = 1;
};

struct EnrollReplyBody {
  std::uint64_t device_id = 0;  ///< the id actually assigned
};

std::vector<std::uint8_t> encode_enroll_request(const EnrollRequestBody& e);
util::Status decode_enroll_request(const std::vector<std::uint8_t>& payload,
                                   EnrollRequestBody* out);

std::vector<std::uint8_t> encode_enroll_reply(const EnrollReplyBody& e);
util::Status decode_enroll_reply(const std::vector<std::uint8_t>& payload,
                                 EnrollReplyBody* out);

/// Gateway shard-lifecycle operations carried by kAdminRequest.
enum class AdminOp : std::uint8_t {
  kStatus = 1,       ///< report every shard's state + counters
  kAddShard = 2,     ///< add (or re-point) shard `shard` at host:port
  kDrainShard = 3,   ///< stop new sessions; host:port = optional successor
  kUndrainShard = 4, ///< cancel a drain
  kRemoveShard = 5,  ///< take the shard out of the ring entirely
};

struct AdminRequestBody {
  AdminOp op = AdminOp::kStatus;
  std::string shard;  ///< target shard name (ignored for kStatus)
  std::string host;   ///< kAddShard: endpoint; kDrainShard: successor
  std::uint16_t port = 0;
};

struct ShardStatus {
  std::string name;
  std::string host;
  std::uint16_t port = 0;
  std::uint8_t state = 0;     ///< fleet::ShardState numeric value
  std::uint8_t draining = 0;  ///< backend reports draining via PING
  std::uint64_t inflight = 0;         ///< forwards in flight right now
  std::uint64_t pinned_sessions = 0;  ///< live chained-auth pins
  std::uint64_t forwarded = 0;        ///< lifetime forwards
  std::uint64_t device_count = 0;     ///< from the shard's health reply
  std::uint64_t wal_epoch = 0;
  std::uint64_t wal_offset = 0;
};

struct AdminReplyBody {
  std::uint8_t ok = 0;
  std::string message;
  std::vector<ShardStatus> shards;
};

std::vector<std::uint8_t> encode_admin_request(const AdminRequestBody& a);
util::Status decode_admin_request(const std::vector<std::uint8_t>& payload,
                                  AdminRequestBody* out);

std::vector<std::uint8_t> encode_admin_reply(const AdminReplyBody& a);
util::Status decode_admin_reply(const std::vector<std::uint8_t>& payload,
                                AdminReplyBody* out);

/// Standby pull: "give me WAL bytes of `epoch` starting at `offset`".
struct WalFetchRequestBody {
  std::uint64_t epoch = 0;   ///< 0 = unknown; always answered by bootstrap
  std::uint64_t offset = 0;
  std::uint32_t max_bytes = 0;  ///< 0 = server default cap
};

/// Reply to a WAL fetch.  Either a byte-exact WAL segment (bootstrap == 0,
/// `bytes` appended at `offset` of epoch `epoch`), or a full snapshot
/// image (bootstrap == 1) when the requested epoch/offset no longer exists
/// (compaction bumped the epoch, or the primary restarted).  After a
/// bootstrap the standby resumes at {epoch, next_offset}.
struct WalSegmentBody {
  std::uint8_t bootstrap = 0;
  std::uint64_t epoch = 0;
  std::uint64_t next_offset = 0;  ///< offset after `bytes` (segment) or the
                                  ///< WAL position the snapshot folds in
  std::vector<std::uint8_t> bytes;
};

std::vector<std::uint8_t> encode_wal_fetch_request(
    const WalFetchRequestBody& f);
util::Status decode_wal_fetch_request(
    const std::vector<std::uint8_t>& payload, WalFetchRequestBody* out);

std::vector<std::uint8_t> encode_wal_segment_reply(const WalSegmentBody& s);
util::Status decode_wal_segment_reply(
    const std::vector<std::uint8_t>& payload, WalSegmentBody* out);

struct RedirectReplyBody {
  std::string host;
  std::uint16_t port = 0;
  std::string shard;    ///< shard name, informational
  std::string message;
};

std::vector<std::uint8_t> encode_redirect_reply(const RedirectReplyBody& r);
util::Status decode_redirect_reply(const std::vector<std::uint8_t>& payload,
                                   RedirectReplyBody* out);

}  // namespace ppuf::net
