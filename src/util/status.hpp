// Typed outcomes, wall-clock budgets, and cooperative cancellation shared by
// every long-running solver in the project.
//
// The authentication protocol is built on *timely* answers, so a solver that
// can neither be bounded in time nor report a typed failure is a liability:
// the service layer needs "this item timed out" / "this item was malformed"
// as data, not as a stray exception that destroys a whole batch.  This
// header provides the vocabulary:
//
//   - Status / StatusCode: a small typed outcome (ok, cancelled, deadline
//     exceeded, invalid argument, ...) carried by solver results.
//   - Deadline: an absolute wall-clock budget (steady clock).
//   - CancelToken: a shared flag for cooperative cancellation.
//   - SolveControl: the pair (deadline, cancel token) threaded through the
//     max-flow solvers and the batch front ends.
//   - StopCheck: a cheap periodic checker for inner loops (one relaxed
//     atomic load per call; the clock is read only every `stride` calls).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

namespace ppuf::util {

enum class StatusCode {
  kOk,
  kCancelled,
  kDeadlineExceeded,
  kInvalidArgument,
  kInternal,
  kUnavailable,  ///< transient: overloaded / draining / transport failure
  kNotFound,     ///< named entity (e.g. a device id) is not in the store
};

const char* status_code_name(StatusCode code);

/// A typed outcome with an optional human-readable message.  Default
/// constructed Status is ok, so result structs can grow a `status` member
/// without disturbing existing success paths.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status deadline_exceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status invalid_argument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status not_found(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "DEADLINE_EXCEEDED: ran out of budget after item 7".
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Absolute wall-clock budget.  Default constructed deadlines are unlimited
/// (never expire), so passing `{}` means "no budget".
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  ///< unlimited

  static Deadline unlimited() { return Deadline(); }
  /// Expires `seconds` from now; 0 (or negative) expires immediately.
  static Deadline after_seconds(double seconds);
  static Deadline at(Clock::time_point when) {
    Deadline d;
    d.limited_ = true;
    d.when_ = when;
    return d;
  }

  bool is_unlimited() const { return !limited_; }
  bool expired() const { return limited_ && Clock::now() >= when_; }
  /// Seconds until expiry; +inf when unlimited, <= 0 when expired.
  double remaining_seconds() const;
  /// Time until expiry, clamped to zero once expired;
  /// Clock::duration::max() when unlimited.  This is the form the service
  /// layer puts on the wire: an absolute deadline becomes a per-request
  /// millisecond budget that survives serialization.
  Clock::duration remaining() const;

 private:
  bool limited_ = false;
  Clock::time_point when_{};
};

/// Shared cooperative-cancellation flag.  Copies observe the same flag;
/// cancellation is sticky.  Thread-safe.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Deadline + optional cancel token, threaded through solvers.  Trivially
/// copyable-ish and cheap to pass by value; the default (`{}`) imposes no
/// constraint, so existing call sites keep their semantics.
struct SolveControl {
  Deadline deadline{};                    ///< wall-clock budget
  const CancelToken* cancel = nullptr;    ///< optional cancellation flag

  bool unconstrained() const {
    return deadline.is_unlimited() && cancel == nullptr;
  }
};

/// Periodic stop checker for solver inner loops.  The cancel flag is read on
/// every call (one relaxed atomic load); the clock only every `stride`
/// calls, plus on the very first call so a zero budget stops before any
/// work happens.  Once stopped, stays stopped.
class StopCheck {
 public:
  explicit StopCheck(const SolveControl& control, std::uint32_t stride = 256)
      : control_(control), stride_(stride == 0 ? 1 : stride) {}

  /// True when the solve should stop; query `status()` for the reason.
  bool should_stop() {
    if (code_ != StatusCode::kOk) return true;
    if (control_.unconstrained()) return false;
    if (control_.cancel != nullptr && control_.cancel->cancelled()) {
      code_ = StatusCode::kCancelled;
      return true;
    }
    if (count_++ % stride_ == 0 && control_.deadline.expired()) {
      code_ = StatusCode::kDeadlineExceeded;
      return true;
    }
    return false;
  }

  /// Why the solve stopped (ok when it never stopped).
  Status status(const std::string& where) const;

 private:
  SolveControl control_;
  std::uint32_t stride_;
  std::uint32_t count_ = 0;
  StatusCode code_ = StatusCode::kOk;
};

}  // namespace ppuf::util
