#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fhe/dghv.hpp"
#include "fhe/graph.hpp"

namespace hemul::fhe {

/// Thrown by every decode path on malformed input: truncated buffers, bad
/// magic/version/tag bytes, length-prefix mismatches, non-canonical limb
/// vectors, out-of-range wire references. Decoding never exhibits UB on
/// hostile bytes -- every read is bounds-checked first (the serving layer
/// feeds these functions data that crossed a trust boundary).
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The wire encoding of one serialized object.
using Bytes = std::vector<u8>;

/// Object tag of a wire frame. Every top-level object travels as
///
///   u32 magic "HMW1" | u8 version | u8 tag | u64 payload bytes | payload
///
/// (all integers little-endian), so a stream can be validated, skipped and
/// demultiplexed without understanding every payload. New payload layouts
/// bump kWireVersion; decoders reject versions they do not speak.
enum class WireTag : u8 {
  kBigUInt = 1,
  kParams = 2,
  kPublicKey = 3,
  kSecretKey = 4,
  kCiphertext = 5,
  kGraph = 6,
  /// core::Request envelope: circuit spec (kind, width, lowering strategy
  /// byte) plus the nested graph/input payloads. Encoded by
  /// core::encode_request -- the tag lives here so the frame namespace
  /// stays collision-free.
  kRequest = 7,
  /// core::Response frame: status byte, retry-after hint, diagnostic,
  /// output ciphertext stream and the execution counters. Encoded by
  /// core::encode_response.
  kResponse = 8,
  /// Transport envelope of the shard/router protocol: message type,
  /// session id, request id, nested payload (see docs/wire-protocol.md).
  kEnvelope = 9,
};

inline constexpr u32 kWireMagic = 0x31574D48u;  ///< "HMW1", little-endian
inline constexpr u8 kWireVersion = 1;

/// Append-only encoder for the primitive wire types. Higher-level encoders
/// compose these; frames are finished with finish_frame() which backpatches
/// the length prefix.
class ByteWriter {
 public:
  void put_u8(u8 value) { out_.push_back(value); }
  void put_u32(u32 value);
  void put_u64(u64 value);
  /// Doubles travel as the IEEE-754 bit pattern of the value.
  void put_f64(double value);
  /// Raw limb vector: u64 count + count little-endian limbs.
  void put_biguint(const bigint::BigUInt& x);
  /// Length-prefixed opaque byte string: u64 count + the bytes verbatim
  /// (nested payloads, e.g. the graph/input streams of a Request).
  void put_bytes(std::span<const u8> data);

  /// Opens a frame: writes the magic/version/tag header and a length
  /// placeholder. Frames may not nest.
  void begin_frame(WireTag tag);
  /// Closes the open frame, backpatching the payload length.
  void finish_frame();

  [[nodiscard]] const Bytes& bytes() const noexcept { return out_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(out_); }

 private:
  Bytes out_;
  std::size_t frame_length_at_ = 0;  ///< offset of the open frame's length field
  bool in_frame_ = false;
};

/// Bounds-checked decoder: every read verifies the remaining byte count
/// first and throws SerializeError on underrun. Does not own the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const u8> data) : data_(data) {}

  [[nodiscard]] u8 get_u8();
  [[nodiscard]] u32 get_u32();
  [[nodiscard]] u64 get_u64();
  [[nodiscard]] double get_f64();
  /// Rejects non-canonical encodings (trailing zero limb), so
  /// decode(encode(x)) == x is a bijection.
  [[nodiscard]] bigint::BigUInt get_biguint();
  /// Inverse of ByteWriter::put_bytes (bounds-checked before copying).
  [[nodiscard]] Bytes get_bytes();

  /// Reads and validates a frame header of the expected tag; returns the
  /// payload length after checking it fits the remaining bytes.
  u64 expect_frame(WireTag tag);

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t bytes) const;

  std::span<const u8> data_;
  std::size_t pos_ = 0;
};

/// Scheme-independent description of a recorded circuit: the node list in
/// recording order (inputs as placeholders -- the ciphertexts travel
/// separately) plus the requested output wires. This is what a Request
/// carries over the wire; build() re-records it against any scheme.
struct GraphTopology {
  struct Node {
    GateOp op = GateOp::kInput;
    u32 a = Wire::kInvalid;  ///< operand node indices (gates only)
    u32 b = Wire::kInvalid;
  };

  std::vector<Node> nodes;
  std::vector<u32> outputs;  ///< node indices of the requested outputs

  /// Input placeholders in the node list (= ciphertexts a request must carry).
  [[nodiscard]] std::size_t input_count() const noexcept;

  /// Operand/output indices in range, gates referencing earlier nodes only.
  /// Throws SerializeError on violation (also called by read_graph).
  void validate() const;

  /// Re-records the circuit into `graph`, feeding `inputs` to the input
  /// placeholders in order. Returns the output wires. The rebuilt graph is
  /// gate-for-gate identical modulo CSE, so evaluating it reproduces the
  /// original results bit for bit.
  std::vector<Wire> build(Graph& graph, std::span<const Ciphertext> inputs) const;

  /// Captures the topology of a recorded graph (all nodes, in id order).
  static GraphTopology capture(const Graph& graph, std::span<const Wire> outputs);
};

// --- framed encode/decode of the wire objects ------------------------------
//
// Each encode_* returns one self-contained frame; the matching decode_*
// accepts a ByteReader positioned at the frame header (so frames can be
// concatenated into streams) and a convenience overload accepts a whole
// buffer holding exactly one frame.

Bytes encode_biguint(const bigint::BigUInt& x);
bigint::BigUInt decode_biguint(ByteReader& reader);
bigint::BigUInt decode_biguint(std::span<const u8> buffer);

Bytes encode_params(const DghvParams& params);
DghvParams decode_params(ByteReader& reader);
DghvParams decode_params(std::span<const u8> buffer);

/// A public key carries either no elements (a tenant's key: x0 only) or
/// all tau of them; encode and decode refuse any other count.
Bytes encode_public_key(const PublicKey& key);
PublicKey decode_public_key(ByteReader& reader);
PublicKey decode_public_key(std::span<const u8> buffer);

/// The DGHV secret key is the single integer p, framed with its own tag so
/// key material is never confused with an operand on the wire.
Bytes encode_secret_key(const bigint::BigUInt& p);
bigint::BigUInt decode_secret_key(ByteReader& reader);
bigint::BigUInt decode_secret_key(std::span<const u8> buffer);

Bytes encode_ciphertext(const Ciphertext& c);
Ciphertext decode_ciphertext(ByteReader& reader);
Ciphertext decode_ciphertext(std::span<const u8> buffer);

/// A stream of ciphertext frames back to back (request inputs / response
/// outputs travel this way; the count is implied by the buffer length).
Bytes encode_ciphertexts(std::span<const Ciphertext> cs);
std::vector<Ciphertext> decode_ciphertexts(std::span<const u8> buffer);

Bytes encode_graph(const GraphTopology& topology);
GraphTopology decode_graph(ByteReader& reader);
GraphTopology decode_graph(std::span<const u8> buffer);

// --- transport envelope ----------------------------------------------------
//
// The shard/router fleet protocol (src/net/) exchanges ordinary HMW1 frames
// wrapped in one extra kEnvelope frame that adds routing state the payload
// frames deliberately do not carry: which conversation the bytes belong to
// (session id) and which outstanding call they answer (request id). The
// payload of an envelope is itself a byte-exact HMW1 frame stream, so the
// transport never re-encodes application objects. See docs/wire-protocol.md
// for the normative layout and a worked hex dump.

/// Discriminates the envelope payload. Unknown values are a SerializeError,
/// not an extension point -- new message types are appended here and peers
/// that do not speak them reject the envelope outright.
enum class MessageType : u8 {
  /// client -> shard: params frame, x0 frame and the encryptions of 0 and
  /// 1 (fhe::encode_session_create). Creates a tenant; the tenant ran
  /// keygen and keeps its keys.
  kCreateSession = 1,
  /// shard -> client: empty payload. The new session id travels in the
  /// envelope header.
  kSessionCreated = 2,
  /// client -> shard: one kRequest frame to evaluate under the session.
  kSubmit = 3,
  /// shard -> client: one kResponse frame answering a kSubmit.
  kResponse = 4,
  /// client -> shard/router: empty payload; asks for service statistics.
  kStats = 5,
  /// shard/router -> client: FleetStats payload (see net/frame.hpp).
  kStatsReply = 6,
  /// client -> shard: empty payload; asks the shard to stop accepting.
  kShutdown = 7,
  /// shard -> client: empty payload; acknowledges kShutdown.
  kShutdownAck = 8,
  /// shard/router -> client: error payload (u8 WireErrorCode + message
  /// bytes) answering the request id that failed.
  kError = 9,
  /// any peer -> any peer: liveness probe, empty payload (the router's
  /// health loop sends these). Answered with kPong.
  kPing = 10,
  /// Reply to kPing: empty payload, echoed request id.
  kPong = 11,
};

/// Machine-readable reason inside a kError envelope.
enum class WireErrorCode : u8 {
  kBadRequestBytes = 1,  ///< payload failed to decode (SerializeError)
  kUnknownSession = 2,   ///< session id not present on this shard
  kShuttingDown = 3,     ///< shard is draining; try another shard
  kUnsupported = 4,      ///< message type valid but not handled by this peer
  kInternal = 5,         ///< unexpected server-side failure
};

/// One transport envelope: message type, session id, request id and the
/// nested payload bytes (an HMW1 frame stream, possibly empty).
///
/// The deadline travels in an optional *extension tail* after the payload
/// (u8 extension tag 1 + u64 milliseconds), emitted only when nonzero -- an
/// envelope without a deadline is byte-identical to the original layout, so
/// peers predating the extension still parse deadline-free traffic.
struct Envelope {
  MessageType type = MessageType::kError;
  u64 session = 0;     ///< 0 when the message is not session-scoped
  u64 request_id = 0;  ///< echoes the request this answers; 0 for one-way
  Bytes payload;
  /// Remaining time budget of the request in milliseconds (relative, so it
  /// survives clock skew between hosts). 0 = no deadline. A server drops
  /// work still queued past its budget with ResponseStatus::kExpired.
  u64 deadline_ms = 0;
};

Bytes encode_envelope(const Envelope& envelope);
Envelope decode_envelope(ByteReader& reader);
Envelope decode_envelope(std::span<const u8> buffer);

/// Payload builder/parser for MessageType::kError envelopes.
Bytes encode_error_payload(WireErrorCode code, const std::string& message);
std::pair<WireErrorCode, std::string> decode_error_payload(std::span<const u8> payload);

}  // namespace hemul::fhe
