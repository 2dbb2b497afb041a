#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "fhe/serialize.hpp"

namespace hemul::core {

/// Handle to one tenant's key context inside a Service. Ids are never
/// reused within a Service instance.
using SessionId = u64;

/// The circuits a Request can name. Builtin kinds mirror fhe::Graph's
/// word-level builders; kGraph carries a caller-recorded topology instead.
///
/// Input-ciphertext conventions (little-endian bit order throughout):
///   kAnd      : 2 ciphertexts (a, b)            -> 1 output
///   kAdder    : 2w (a bits, then b bits)        -> w sum bits + carry
///   kEquals   : 2w (a bits, then b bits)        -> 1 output
///   kMul      : 2w (a bits, then b bits)        -> 2w product bits
///   kMux      : 1 + 2w (select, when_true bits,
///               then when_false bits)           -> w selected bits
///   kLessThan : 2w (a bits, then b bits)        -> 1 output (a < b)
///   kGraph    : one ciphertext per input
///               placeholder, in recording order -> the topology's outputs
/// Constant zero/one wires of the builtin circuits are encrypted
/// server-side from the session's key context.
enum class CircuitKind : u8 {
  kAnd,
  kAdder,
  kEquals,
  kMul,
  kMux,
  kLessThan,
  kGraph,
};

/// Registry-style name of a builtin circuit ("and", "adder", "equals",
/// "mul", "mux", "lt", "graph").
[[nodiscard]] std::string_view circuit_kind_name(CircuitKind kind) noexcept;

/// Inverse of circuit_kind_name; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] CircuitKind circuit_kind_from_name(std::string_view name);

/// The largest builtin word width the service admits.
inline constexpr unsigned kMaxCircuitWidth = 16;

/// The typed circuit selector of a Request: which builtin, at what word
/// width, lowered how. One parse/validate surface shared by the service
/// coordinator and hemul_cli, replacing the former name + width stringly
/// pairing.
struct CircuitSpec {
  CircuitKind kind = CircuitKind::kAnd;
  unsigned width = 1;  ///< word width of the builtin circuits, in [1, 16]
  /// Lowering of the word-level builtins (kAnd/kGraph ignore it: a lone
  /// gate has no word structure and a topology is already lowered).
  fhe::LoweringOptions lowering;

  /// Ciphertexts a request of this shape must carry (kGraph: decided by
  /// the topology, returns 0 here).
  [[nodiscard]] std::size_t input_count() const noexcept;

  /// Throws fhe::SerializeError when the spec cannot be served (width out
  /// of [1, kMaxCircuitWidth] for builtin kinds).
  void validate() const;

  /// "mul/8/carry-save" -- for diagnostics and logs.
  [[nodiscard]] std::string describe() const;

  /// Builds a validated spec from transport-level strings; throws
  /// std::invalid_argument / fhe::SerializeError on unknown names or a bad
  /// width.
  static CircuitSpec parse(std::string_view kind_name, unsigned width,
                           std::string_view lowering_name);

  friend bool operator==(const CircuitSpec&, const CircuitSpec&) = default;
};

/// One unit of tenant work: serialized ciphertext inputs plus the circuit
/// to run them through. Everything a transport would put on the wire.
struct Request {
  CircuitSpec spec;
  /// Serialized fhe::GraphTopology (kGraph requests only).
  fhe::Bytes graph;
  /// Serialized ciphertext stream (fhe::encode_ciphertexts), one frame per
  /// circuit input.
  fhe::Bytes inputs;
};

/// Framed wire encoding of a whole Request (fhe::WireTag::kRequest): the
/// spec -- including the lowering-strategy byte -- plus the nested graph
/// and input payloads. decode_request re-validates everything it reads
/// (unknown kind/strategy bytes, truncation, width range) and throws
/// fhe::SerializeError, so a transport can pass hostile bytes straight in.
[[nodiscard]] fhe::Bytes encode_request(const Request& request);
[[nodiscard]] Request decode_request(std::span<const u8> buffer);

struct Response;

/// Framed wire encoding of a whole Response (fhe::WireTag::kResponse):
/// status byte, retry-after hint, diagnostic, output ciphertext stream and
/// the execution counters. decode_response validates the status byte and
/// throws fhe::SerializeError on malformed bytes.
[[nodiscard]] fhe::Bytes encode_response(const Response& response);
[[nodiscard]] Response decode_response(std::span<const u8> buffer);

enum class ResponseStatus : u8 {
  kOk = 0,
  /// The pre-execution NoiseModel audit predicts an undecryptable output;
  /// no multiplication was spent.
  kRejectedByNoise,
  /// Malformed payload: serialization errors, width/input-count
  /// mismatches, ciphertexts exceeding the session modulus.
  kBadRequest,
  /// A backend threw while executing this request (e.g. an operand past
  /// an engine's limits). The service stays up; only this request fails.
  kInternalError,
  /// Load-shed at submit: the admission queue was at its configured bound
  /// (ServiceOptions::max_queue_depth). The request never entered the
  /// queue; retry_after_ms hints when to retry.
  kOverloaded,
  /// The service (or the connection carrying the request) is gone: shard
  /// draining after stop_accepting(), or a connection loss that failed the
  /// in-flight requests of that connection only.
  kUnavailable,
  /// The caller-side deadline elapsed before a reply arrived. Produced
  /// locally by net::ShardClient's timer (the peer may still answer later;
  /// that stale reply is discarded), never by the service itself.
  kTimeout,
  /// The request's deadline budget was already spent when the service got
  /// around to admitting it; it was dropped before any multiplication was
  /// spent (the wire deadline travels in the envelope's extension tail).
  kExpired,
};

/// Completion of one Request, delivered through the submit() future.
struct Response {
  ResponseStatus status = ResponseStatus::kOk;
  std::string error;   ///< diagnostic (non-kOk only)
  fhe::Bytes outputs;  ///< serialized ciphertext stream (kOk only)
  /// Back-off hint for kOverloaded responses: one admission window, so a
  /// retry lands after the queue has had a chance to drain. 0 otherwise.
  double retry_after_ms = 0.0;

  u64 and_gates = 0;      ///< multiplications executed for this request
  unsigned levels = 0;    ///< multiplicative depth (= wavefronts traversed)
  u64 shared_batches = 0; ///< scheduler batches this request rode on (each
                          ///< possibly shared with other tenants' gates)
  /// NTT executions (forward + inverse) this request actually cost, when
  /// served by spectrum-resident rounds (0 on the eager protocol, whose
  /// transforms are booked inside the lane engines).
  u64 transforms_executed = 0;
  /// Transforms the resident protocol saved against the per-gate eager
  /// cost of the same gates (3 per AND). Deterministic.
  i64 transforms_avoided = 0;
  double queue_ms = 0.0;  ///< submit -> admission
  double exec_ms = 0.0;   ///< admission -> completion

  [[nodiscard]] bool ok() const noexcept { return status == ResponseStatus::kOk; }
};

/// Per-tenant accounting (monotonic over the session's lifetime).
struct TenantStats {
  SessionId session = 0;
  u64 submitted = 0;
  u64 completed = 0;  ///< kOk responses
  u64 rejected_by_noise = 0;
  u64 bad_requests = 0;
  u64 internal_errors = 0;
  u64 shed = 0;     ///< kOverloaded refusals (never entered the queue)
  u64 expired = 0;  ///< kExpired drops (deadline spent before admission)
  u64 and_gates = 0;
  u64 wavefronts = 0;
  u64 bytes_in = 0;   ///< serialized request payloads accepted
  u64 bytes_out = 0;  ///< serialized response payloads produced
};

/// Service-wide snapshot.
struct ServiceStats {
  u64 submitted = 0;
  u64 completed = 0;
  u64 rejected_by_noise = 0;
  u64 bad_requests = 0;
  u64 internal_errors = 0;
  u64 shed = 0;              ///< kOverloaded refusals across all tenants
  u64 expired = 0;           ///< kExpired deadline drops across all tenants
  u64 sessions_evicted = 0;  ///< idle key contexts dropped by the LRU bound
  u64 and_gates = 0;
  u64 wavefronts = 0;  ///< per-request wavefronts, summed
  /// Coalesced scheduler batches actually submitted. Cross-request batching
  /// makes this less than the number of multiply-carrying requests when
  /// tenants overlap: independent wavefronts ride one batch.
  u64 batches_submitted = 0;
  /// Sum over batches of the requests sharing each batch (see
  /// coalescing()).
  u64 coalesced_requests = 0;
  /// NTT executions spent / saved by spectrum-resident rounds, summed over
  /// successful requests (both 0 when lanes run the eager protocol).
  u64 transforms_executed = 0;
  i64 transforms_avoided = 0;
  std::size_t queue_depth = 0;      ///< submitted, not yet admitted
  std::size_t active_requests = 0;  ///< admitted, still executing
  std::size_t sessions = 0;
  std::vector<LaneStats> lanes;  ///< PE-lane accounting of the owned scheduler

  /// Mean requests sharing one scheduler batch (0 when nothing ran).
  [[nodiscard]] double coalescing() const noexcept {
    return batches_submitted > 0
               ? static_cast<double>(coalesced_requests) /
                     static_cast<double>(batches_submitted)
               : 0.0;
  }
};

}  // namespace hemul::core
