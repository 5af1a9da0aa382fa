// Request/response surface of the multi-tenant serving layer (docs/serving.md).
//
// A serve::Request is one unit of admitted work: either a pre-recorded
// snn::SpikeTrace (the replay path benches use) or a raw image the server
// encodes and simulates with the session's own RNG stream before replaying.
// A serve::Response pairs the per-request api::ExecutionReport with the
// serving-layer latency stamps (queue wait, batch wall time) that the
// accelerator model cannot know about.  Copies of a response share the
// report's native report and fault manifest, so the callback's and the
// promise's copies cost at most one allocation each (docs/serving.md).
//
// Serving failures are reported as ServeError with a stable RS-* code
// (mirroring the verifier's RV-* convention, docs/verification.md), so
// tests and callers dispatch on Error::code() instead of message text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/accelerator.hpp"
#include "common/error.hpp"
#include "snn/trace.hpp"

namespace resparc::serve {

/// Thrown by the serving layer; code() is one of the RS-* codes below.
class ServeError : public Error {
 public:
  /// Wraps `what` with the "serve error:" prefix; `code` is the stable
  /// RS-* failure code (docs/serving.md lists the catalog).
  explicit ServeError(const std::string& what, std::string code)
      : Error("serve error: " + what, std::move(code)) {}
};

/// A tenant queue was at capacity when the request arrived (admission
/// control rejects instead of blocking the producer).
inline constexpr const char* kErrQueueFull = "RS-QUEUE-FULL";
/// The named tenant was never added to the server.
inline constexpr const char* kErrUnknownTenant = "RS-TENANT-UNKNOWN";
/// A tenant with this name is already bound.
inline constexpr const char* kErrDuplicateTenant = "RS-TENANT-DUP";
/// The session id is unknown (never opened, or already closed).
inline constexpr const char* kErrUnknownSession = "RS-SESSION-UNKNOWN";
/// A cached program blob failed parse/verification on rehydrate.
inline constexpr const char* kErrCacheCorrupt = "RS-CACHE-CORRUPT";
/// The server is shutting down; no new tenants/sessions/requests.
inline constexpr const char* kErrShutdown = "RS-SHUTDOWN";
/// The request carries neither a trace nor an image.
inline constexpr const char* kErrEmptyRequest = "RS-REQUEST-EMPTY";
/// A raw-image request reached a tenant bound without a network (the
/// server can replay traces but has nothing to simulate images with).
inline constexpr const char* kErrNoNetwork = "RS-TENANT-NO-NETWORK";
/// Every replica of the tenant failed its canary check: the request (or
/// the whole pending queue) cannot be served (docs/reliability.md).
inline constexpr const char* kErrReplicaDegraded = "RS-REPLICA-DEGRADED";
/// A batch hit ServerConfig::max_retries replicas that all turned out
/// degraded at checkout before finding a healthy one.
inline constexpr const char* kErrRetryExhausted = "RS-RETRY-EXHAUSTED";

/// Stable ids handed out by Server::open_session.
using SessionId = std::uint64_t;

/// One admitted unit of work.  Exactly one payload must be non-empty:
/// a pre-recorded spike trace (replayed as-is) or a raw image (flat CHW
/// intensities in [0,1], encoded + simulated server-side with the
/// session's deterministic RNG stream, then replayed).
struct Request {
  snn::SpikeTrace trace{};     ///< replay payload (used when non-empty)
  std::vector<float> image{};  ///< raw-image payload (simulated server-side)

  /// True when the request carries a pre-recorded trace.
  bool has_trace() const { return !trace.layers.empty(); }
};

/// Completion record of one request.  Promises/callbacks deliver
/// responses in per-session submit order (sequence is strictly
/// ascending per session, docs/serving.md).
struct Response {
  SessionId session = 0;           ///< session the request belonged to
  std::uint64_t sequence = 0;      ///< per-session submit index (0-based)
  std::size_t predicted_class = 0; ///< simulator argmax (raw-image requests)
  bool simulated = false;          ///< true when the server ran the simulator
  std::size_t batch_size = 0;      ///< requests in the executed batch
  api::ExecutionReport report;     ///< per-request replay report

  // Serving-layer latency stamps, all in wall nanoseconds:
  std::uint64_t queue_ns = 0;   ///< submit -> batch dispatch wait
  std::uint64_t batch_ns = 0;   ///< wall time of the whole batch execution
  std::uint64_t total_ns = 0;   ///< submit -> response published
};

}  // namespace resparc::serve
