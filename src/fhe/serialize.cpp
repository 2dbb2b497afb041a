#include "fhe/serialize.hpp"

#include <bit>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace hemul::fhe {

namespace {

[[noreturn]] void fail(const std::string& what) { throw SerializeError("serialize: " + what); }

}  // namespace

// --- ByteWriter ------------------------------------------------------------

void ByteWriter::put_u32(u32 value) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<u8>(value >> (8 * i)));
}

void ByteWriter::put_u64(u64 value) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<u8>(value >> (8 * i)));
}

void ByteWriter::put_f64(double value) { put_u64(std::bit_cast<u64>(value)); }

void ByteWriter::put_biguint(const bigint::BigUInt& x) {
  put_u64(x.limb_count());
  const std::span<const u64> limbs = x.limbs();
  // One bulk copy: the wire's little-endian limbs are the in-memory bytes.
  if constexpr (std::endian::native == std::endian::little) {
    const auto* bytes = reinterpret_cast<const u8*>(limbs.data());
    out_.insert(out_.end(), bytes, bytes + 8 * limbs.size());
  } else {
    out_.reserve(out_.size() + 8 * limbs.size());
    for (const u64 limb : limbs) put_u64(limb);
  }
}

void ByteWriter::put_bytes(std::span<const u8> data) {
  put_u64(data.size());
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::begin_frame(WireTag tag) {
  HEMUL_CHECK_MSG(!in_frame_, "ByteWriter: frames may not nest");
  put_u32(kWireMagic);
  put_u8(kWireVersion);
  put_u8(static_cast<u8>(tag));
  frame_length_at_ = out_.size();
  put_u64(0);  // length placeholder, backpatched by finish_frame
  in_frame_ = true;
}

void ByteWriter::finish_frame() {
  HEMUL_CHECK_MSG(in_frame_, "ByteWriter: no open frame");
  const u64 payload = out_.size() - frame_length_at_ - 8;
  for (int i = 0; i < 8; ++i) {
    out_[frame_length_at_ + static_cast<std::size_t>(i)] = static_cast<u8>(payload >> (8 * i));
  }
  in_frame_ = false;
}

// --- ByteReader ------------------------------------------------------------

void ByteReader::need(std::size_t bytes) const {
  if (remaining() < bytes) {
    fail("truncated buffer: need " + std::to_string(bytes) + " bytes, have " +
         std::to_string(remaining()));
  }
}

u8 ByteReader::get_u8() {
  need(1);
  return data_[pos_++];
}

u32 ByteReader::get_u32() {
  need(4);
  u32 value = 0;
  for (std::size_t i = 0; i < 4; ++i) value |= static_cast<u32>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return value;
}

u64 ByteReader::get_u64() {
  need(8);
  u64 value = 0;
  for (std::size_t i = 0; i < 8; ++i) value |= static_cast<u64>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return value;
}

double ByteReader::get_f64() { return std::bit_cast<double>(get_u64()); }

bigint::BigUInt ByteReader::get_biguint() {
  const u64 count = get_u64();
  // The count must be backed by actual bytes before any allocation: a
  // hostile 2^60 count would otherwise reserve exabytes.
  if (count > remaining() / 8) fail("limb count exceeds the buffer");
  std::vector<u64> limbs(count);
  if constexpr (std::endian::native == std::endian::little) {
    if (count != 0) std::memcpy(limbs.data(), data_.data() + pos_, 8 * count);
    pos_ += 8 * count;
  } else {
    for (u64& limb : limbs) limb = get_u64();
  }
  if (!limbs.empty() && limbs.back() == 0) fail("non-canonical limb vector (trailing zero)");
  return bigint::BigUInt::from_limbs(std::move(limbs));
}

Bytes ByteReader::get_bytes() {
  const u64 count = get_u64();
  // Bounds first (same hostile-count rule as get_biguint).
  if (count > remaining()) fail("byte string length exceeds the buffer");
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + count));
  pos_ += count;
  return out;
}

u64 ByteReader::expect_frame(WireTag tag) {
  if (get_u32() != kWireMagic) fail("bad magic (not a hemul wire frame)");
  const u8 version = get_u8();
  if (version != kWireVersion) {
    fail("unsupported wire version " + std::to_string(version));
  }
  const u8 got = get_u8();
  if (got != static_cast<u8>(tag)) {
    fail("unexpected frame tag " + std::to_string(got) + " (want " +
         std::to_string(static_cast<u8>(tag)) + ")");
  }
  const u64 payload = get_u64();
  if (payload > remaining()) fail("frame payload length exceeds the buffer");
  return payload;
}

namespace {

/// Decodes one frame's payload with `body`, verifying the consumed byte
/// count matches the length prefix exactly.
template <typename Fn>
auto decode_frame(ByteReader& reader, WireTag tag, Fn body) {
  const u64 payload = reader.expect_frame(tag);
  const std::size_t start = reader.position();
  auto value = body(reader);
  if (reader.position() - start != payload) fail("frame payload length mismatch");
  return value;
}

/// Decodes a buffer holding exactly one frame (no trailing bytes).
template <typename Fn>
auto decode_whole(std::span<const u8> buffer, WireTag tag, Fn body) {
  ByteReader reader(buffer);
  auto value = decode_frame(reader, tag, body);
  if (!reader.at_end()) fail("trailing bytes after frame");
  return value;
}

bigint::BigUInt read_biguint_payload(ByteReader& r) { return r.get_biguint(); }

DghvParams read_params_payload(ByteReader& r) {
  DghvParams params;
  params.lambda = r.get_u32();
  params.rho = r.get_u64();
  params.eta = r.get_u64();
  params.gamma = r.get_u64();
  params.tau = r.get_u32();
  try {
    params.validate();
  } catch (const std::invalid_argument& e) {
    fail(std::string("inconsistent DGHV parameters: ") + e.what());
  }
  return params;
}

void write_params_payload(ByteWriter& w, const DghvParams& params) {
  w.put_u32(params.lambda);
  w.put_u64(params.rho);
  w.put_u64(params.eta);
  w.put_u64(params.gamma);
  w.put_u32(params.tau);
}

Ciphertext read_ciphertext_payload(ByteReader& r) {
  Ciphertext c;
  c.value = r.get_biguint();
  c.noise_bits = r.get_f64();
  if (!(c.noise_bits >= 0.0) || c.noise_bits > 1e12) fail("ciphertext noise out of range");
  return c;
}

void write_ciphertext_payload(ByteWriter& w, const Ciphertext& c) {
  w.put_biguint(c.value);
  w.put_f64(c.noise_bits);
}

}  // namespace

// --- BigUInt ---------------------------------------------------------------

Bytes encode_biguint(const bigint::BigUInt& x) {
  ByteWriter w;
  w.begin_frame(WireTag::kBigUInt);
  w.put_biguint(x);
  w.finish_frame();
  return w.take();
}

bigint::BigUInt decode_biguint(ByteReader& reader) {
  return decode_frame(reader, WireTag::kBigUInt, read_biguint_payload);
}

bigint::BigUInt decode_biguint(std::span<const u8> buffer) {
  return decode_whole(buffer, WireTag::kBigUInt, read_biguint_payload);
}

// --- DghvParams ------------------------------------------------------------

Bytes encode_params(const DghvParams& params) {
  ByteWriter w;
  w.begin_frame(WireTag::kParams);
  write_params_payload(w, params);
  w.finish_frame();
  return w.take();
}

DghvParams decode_params(ByteReader& reader) {
  return decode_frame(reader, WireTag::kParams, read_params_payload);
}

DghvParams decode_params(std::span<const u8> buffer) {
  return decode_whole(buffer, WireTag::kParams, read_params_payload);
}

// --- PublicKey -------------------------------------------------------------

Bytes encode_public_key(const PublicKey& key) {
  // The counts a key can have: none (a tenant's key) or all tau elements
  // (Dghv::build_public_key). The decoder accepts exactly these.
  if (!key.x.empty() && key.x.size() != key.params.tau) {
    fail("public-key element count is neither 0 nor tau");
  }
  ByteWriter w;
  w.begin_frame(WireTag::kPublicKey);
  write_params_payload(w, key.params);
  w.put_biguint(key.x0);
  w.put_u32(static_cast<u32>(key.x.size()));
  for (const bigint::BigUInt& xi : key.x) w.put_biguint(xi);
  w.finish_frame();
  return w.take();
}

namespace {

PublicKey read_public_key_payload(ByteReader& r) {
  PublicKey key;
  key.params = read_params_payload(r);
  key.x0 = r.get_biguint();
  if (key.x0.is_zero()) fail("public modulus x0 is zero");
  const u32 count = r.get_u32();
  if (count != 0 && count != key.params.tau) {
    fail("public-key element count is neither 0 nor tau");
  }
  // Every element costs at least its 8-byte limb count: bound the
  // allocation by the bytes actually present (a hostile tau would
  // otherwise reserve gigabytes before the first element read fails).
  if (count > r.remaining() / 8) fail("public-key element count exceeds the buffer");
  key.x.reserve(count);
  for (u32 i = 0; i < count; ++i) key.x.push_back(r.get_biguint());
  return key;
}

}  // namespace

PublicKey decode_public_key(ByteReader& reader) {
  return decode_frame(reader, WireTag::kPublicKey, read_public_key_payload);
}

PublicKey decode_public_key(std::span<const u8> buffer) {
  return decode_whole(buffer, WireTag::kPublicKey, read_public_key_payload);
}

// --- secret key ------------------------------------------------------------

Bytes encode_secret_key(const bigint::BigUInt& p) {
  ByteWriter w;
  w.begin_frame(WireTag::kSecretKey);
  w.put_biguint(p);
  w.finish_frame();
  return w.take();
}

bigint::BigUInt decode_secret_key(ByteReader& reader) {
  return decode_frame(reader, WireTag::kSecretKey, read_biguint_payload);
}

bigint::BigUInt decode_secret_key(std::span<const u8> buffer) {
  return decode_whole(buffer, WireTag::kSecretKey, read_biguint_payload);
}

// --- Ciphertext ------------------------------------------------------------

Bytes encode_ciphertext(const Ciphertext& c) {
  ByteWriter w;
  w.begin_frame(WireTag::kCiphertext);
  write_ciphertext_payload(w, c);
  w.finish_frame();
  return w.take();
}

Ciphertext decode_ciphertext(ByteReader& reader) {
  return decode_frame(reader, WireTag::kCiphertext, read_ciphertext_payload);
}

Ciphertext decode_ciphertext(std::span<const u8> buffer) {
  return decode_whole(buffer, WireTag::kCiphertext, read_ciphertext_payload);
}

Bytes encode_ciphertexts(std::span<const Ciphertext> cs) {
  ByteWriter w;
  for (const Ciphertext& c : cs) {
    w.begin_frame(WireTag::kCiphertext);
    write_ciphertext_payload(w, c);
    w.finish_frame();
  }
  return w.take();
}

std::vector<Ciphertext> decode_ciphertexts(std::span<const u8> buffer) {
  ByteReader reader(buffer);
  std::vector<Ciphertext> cs;
  while (!reader.at_end()) cs.push_back(decode_ciphertext(reader));
  return cs;
}

// --- GraphTopology ---------------------------------------------------------

std::size_t GraphTopology::input_count() const noexcept {
  std::size_t count = 0;
  for (const Node& n : nodes) count += n.op == GateOp::kInput ? 1 : 0;
  return count;
}

void GraphTopology::validate() const {
  if (nodes.size() > static_cast<std::size_t>(std::numeric_limits<u32>::max())) {
    fail("graph too large");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.op == GateOp::kInput) continue;
    if (n.op != GateOp::kXor && n.op != GateOp::kAnd) fail("unknown gate op");
    if (n.a >= i || n.b >= i) fail("gate operand references a later node");
  }
  if (outputs.empty()) fail("graph has no outputs");
  for (const u32 out : outputs) {
    if (out >= nodes.size()) fail("output references a nonexistent node");
  }
}

std::vector<Wire> GraphTopology::build(Graph& graph,
                                       std::span<const Ciphertext> inputs) const {
  validate();
  if (inputs.size() != input_count()) {
    fail("input ciphertext count " + std::to_string(inputs.size()) +
         " does not match the topology's " + std::to_string(input_count()) + " placeholders");
  }
  // Re-record node by node. CSE may collapse duplicate gates of a
  // hand-built topology onto one wire; the id map keeps outputs correct
  // either way.
  std::vector<Wire> wire_of(nodes.size());
  std::size_t next_input = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    switch (n.op) {
      case GateOp::kInput:
        wire_of[i] = graph.input(inputs[next_input++]);
        break;
      case GateOp::kXor:
        wire_of[i] = graph.gate_xor(wire_of[n.a], wire_of[n.b]);
        break;
      case GateOp::kAnd:
        wire_of[i] = graph.gate_and(wire_of[n.a], wire_of[n.b]);
        break;
    }
  }
  std::vector<Wire> out;
  out.reserve(outputs.size());
  for (const u32 id : outputs) out.push_back(wire_of[id]);
  return out;
}

GraphTopology GraphTopology::capture(const Graph& graph, std::span<const Wire> outputs) {
  GraphTopology topology;
  topology.nodes.reserve(graph.size());
  for (u32 id = 0; id < graph.size(); ++id) {
    const Wire w{id};
    Node n;
    n.op = graph.op(w);
    if (n.op != GateOp::kInput) {
      const auto [a, b] = graph.operands(w);
      n.a = a.id;
      n.b = b.id;
    }
    topology.nodes.push_back(n);
  }
  topology.outputs.reserve(outputs.size());
  for (const Wire w : outputs) {
    HEMUL_CHECK_MSG(w.valid() && w.id < graph.size(), "capture: output wire from another graph");
    topology.outputs.push_back(w.id);
  }
  return topology;
}

Bytes encode_graph(const GraphTopology& topology) {
  topology.validate();
  ByteWriter w;
  w.begin_frame(WireTag::kGraph);
  w.put_u32(static_cast<u32>(topology.nodes.size()));
  for (const GraphTopology::Node& n : topology.nodes) {
    w.put_u8(static_cast<u8>(n.op));
    if (n.op != GateOp::kInput) {
      w.put_u32(n.a);
      w.put_u32(n.b);
    }
  }
  w.put_u32(static_cast<u32>(topology.outputs.size()));
  for (const u32 out : topology.outputs) w.put_u32(out);
  w.finish_frame();
  return w.take();
}

namespace {

GraphTopology read_graph_payload(ByteReader& r) {
  GraphTopology topology;
  const u32 node_count = r.get_u32();
  // Every node costs at least the op byte: bound the allocation by the
  // bytes actually present before reserving.
  if (node_count > r.remaining()) fail("node count exceeds the buffer");
  topology.nodes.reserve(node_count);
  for (u32 i = 0; i < node_count; ++i) {
    GraphTopology::Node n;
    n.op = static_cast<GateOp>(r.get_u8());
    if (n.op != GateOp::kInput) {
      n.a = r.get_u32();
      n.b = r.get_u32();
    }
    topology.nodes.push_back(n);
  }
  const u32 out_count = r.get_u32();
  if (out_count > r.remaining() / 4) fail("output count exceeds the buffer");
  topology.outputs.reserve(out_count);
  for (u32 i = 0; i < out_count; ++i) topology.outputs.push_back(r.get_u32());
  topology.validate();
  return topology;
}

}  // namespace

GraphTopology decode_graph(ByteReader& reader) {
  return decode_frame(reader, WireTag::kGraph, read_graph_payload);
}

GraphTopology decode_graph(std::span<const u8> buffer) {
  return decode_whole(buffer, WireTag::kGraph, read_graph_payload);
}

// --- Envelope --------------------------------------------------------------

namespace {

/// Extension tag of the envelope's optional trailing section. Encoders emit
/// the tail only when the field is set, so an extension-free envelope stays
/// byte-identical to the original layout (older peers keep parsing it).
constexpr u8 kEnvelopeExtDeadline = 1;

}  // namespace

Bytes encode_envelope(const Envelope& envelope) {
  ByteWriter w;
  w.begin_frame(WireTag::kEnvelope);
  w.put_u8(static_cast<u8>(envelope.type));
  w.put_u64(envelope.session);
  w.put_u64(envelope.request_id);
  w.put_bytes(envelope.payload);
  if (envelope.deadline_ms != 0) {
    w.put_u8(kEnvelopeExtDeadline);
    w.put_u64(envelope.deadline_ms);
  }
  w.finish_frame();
  return w.take();
}

namespace {

Envelope read_envelope_payload(ByteReader& r, u64 payload_bytes) {
  const std::size_t start = r.position();
  Envelope envelope;
  const u8 type = r.get_u8();
  if (type < static_cast<u8>(MessageType::kCreateSession) ||
      type > static_cast<u8>(MessageType::kPong)) {
    fail("unknown envelope message type " + std::to_string(type));
  }
  envelope.type = static_cast<MessageType>(type);
  envelope.session = r.get_u64();
  envelope.request_id = r.get_u64();
  envelope.payload = r.get_bytes();
  // Optional extension tail: u8 tag + field, repeated until the frame's
  // declared payload length is consumed. Unknown tags are rejected -- a
  // peer that emits an extension this decoder does not speak is a protocol
  // error, not silently-dropped data.
  while (r.position() - start < payload_bytes) {
    const u8 ext = r.get_u8();
    if (ext == kEnvelopeExtDeadline) {
      if (envelope.deadline_ms != 0) fail("duplicate envelope deadline extension");
      envelope.deadline_ms = r.get_u64();
      if (envelope.deadline_ms == 0) fail("envelope deadline extension must be nonzero");
    } else {
      fail("unknown envelope extension tag " + std::to_string(ext));
    }
  }
  return envelope;
}

}  // namespace

Envelope decode_envelope(ByteReader& reader) {
  // Hand-rolled rather than decode_frame(): the extension-tail parse needs
  // the frame's payload length to know whether a tail is present.
  const u64 payload = reader.expect_frame(WireTag::kEnvelope);
  const std::size_t start = reader.position();
  Envelope envelope = read_envelope_payload(reader, payload);
  if (reader.position() - start != payload) fail("frame payload length mismatch");
  return envelope;
}

Envelope decode_envelope(std::span<const u8> buffer) {
  ByteReader reader(buffer);
  Envelope envelope = decode_envelope(reader);
  if (!reader.at_end()) fail("trailing bytes after frame");
  return envelope;
}

Bytes encode_error_payload(WireErrorCode code, const std::string& message) {
  ByteWriter w;
  w.put_u8(static_cast<u8>(code));
  w.put_bytes(std::span<const u8>(reinterpret_cast<const u8*>(message.data()), message.size()));
  return w.take();
}

std::pair<WireErrorCode, std::string> decode_error_payload(std::span<const u8> payload) {
  ByteReader r(payload);
  const u8 code = r.get_u8();
  if (code < static_cast<u8>(WireErrorCode::kBadRequestBytes) ||
      code > static_cast<u8>(WireErrorCode::kInternal)) {
    fail("unknown wire error code " + std::to_string(code));
  }
  const Bytes message = r.get_bytes();
  if (!r.at_end()) fail("trailing bytes after error payload");
  return {static_cast<WireErrorCode>(code),
          std::string(message.begin(), message.end())};
}

}  // namespace hemul::fhe
