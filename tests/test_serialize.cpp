#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/serialize.hpp"
#include "fhe/session.hpp"
#include "service/request.hpp"
#include "util/rng.hpp"

namespace hemul::fhe {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  SerializeTest() : scheme_(DghvParams::toy(), 41) {}

  Dghv scheme_;
};

// --- BigUInt round trips ---------------------------------------------------

TEST_F(SerializeTest, BigUIntEdgeSizesRoundTrip) {
  const u64 max = std::numeric_limits<u64>::max();
  std::vector<bigint::BigUInt> cases = {
      bigint::BigUInt{},               // zero: empty limb vector
      bigint::BigUInt{1},              // one
      bigint::BigUInt{max},            // max single limb
      bigint::BigUInt::pow2(64),       // exactly two limbs, low limb zero
      bigint::BigUInt::pow2(64) - bigint::BigUInt{1},
      bigint::BigUInt::pow2(8191),     // many limbs, power of two
  };
  util::Rng rng(0x5E1A);
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 1000u, 99991u}) {
    cases.push_back(bigint::BigUInt::random_bits(rng, bits));
  }

  for (const bigint::BigUInt& x : cases) {
    const Bytes wire = encode_biguint(x);
    EXPECT_EQ(decode_biguint(wire), x) << "round trip of " << x.bit_length() << " bits";
  }
}

TEST_F(SerializeTest, NonCanonicalLimbVectorIsRejected) {
  // encode 1 as [1, 0]: a trailing zero limb the canonical form forbids.
  ByteWriter w;
  w.begin_frame(WireTag::kBigUInt);
  w.put_u64(2);
  w.put_u64(1);
  w.put_u64(0);
  w.finish_frame();
  EXPECT_THROW((void)decode_biguint(w.bytes()), SerializeError);
}

TEST_F(SerializeTest, HostileLimbCountDoesNotAllocate) {
  // A count field claiming 2^60 limbs with no bytes behind it must be
  // rejected before any allocation happens.
  ByteWriter w;
  w.begin_frame(WireTag::kBigUInt);
  w.put_u64(1ULL << 60);
  w.finish_frame();
  EXPECT_THROW((void)decode_biguint(w.bytes()), SerializeError);
}

// --- params / keys ---------------------------------------------------------

TEST_F(SerializeTest, ParamsRoundTrip) {
  for (const DghvParams& params :
       {DghvParams::toy(), DghvParams::medium(), DghvParams::deep(), DghvParams::small_paper()}) {
    const DghvParams back = decode_params(encode_params(params));
    EXPECT_EQ(back.lambda, params.lambda);
    EXPECT_EQ(back.rho, params.rho);
    EXPECT_EQ(back.eta, params.eta);
    EXPECT_EQ(back.gamma, params.gamma);
    EXPECT_EQ(back.tau, params.tau);
  }
}

TEST_F(SerializeTest, InconsistentParamsAreRejected) {
  DghvParams params = DghvParams::toy();
  params.eta = params.gamma + 1;  // violates eta < gamma
  ByteWriter w;
  w.begin_frame(WireTag::kParams);
  w.put_u32(params.lambda);
  w.put_u64(params.rho);
  w.put_u64(params.eta);
  w.put_u64(params.gamma);
  w.put_u32(params.tau);
  w.finish_frame();
  EXPECT_THROW((void)decode_params(w.bytes()), SerializeError);
}

TEST_F(SerializeTest, PublicKeyRoundTrip) {
  const PublicKey key = scheme_.build_public_key(41);
  ASSERT_EQ(key.x.size(), key.params.tau);
  const PublicKey back = decode_public_key(encode_public_key(key));
  EXPECT_EQ(back.x0, key.x0);
  EXPECT_EQ(back.x, key.x);
  EXPECT_EQ(back.params.eta, key.params.eta);

  // A decrypt through a round-tripped secret key matches the original.
  const bigint::BigUInt p = decode_secret_key(encode_secret_key(scheme_.secret_key()));
  EXPECT_EQ(p, scheme_.secret_key());
}

TEST_F(SerializeTest, TenantPublicKeyRoundTripsWithNoElements) {
  // A tenant's key is x0 alone: it encodes and decodes back to x0 alone.
  const PublicKey& key = scheme_.public_key();
  ASSERT_TRUE(key.x.empty());
  const PublicKey back = decode_public_key(encode_public_key(key));
  EXPECT_EQ(back.x0, key.x0);
  EXPECT_TRUE(back.x.empty());
  EXPECT_EQ(back.params.tau, key.params.tau);
}

TEST_F(SerializeTest, PublicKeyWithSomeButNotAllElementsIsRefusedBothWays) {
  // 1..tau-1 elements is no key that exists: the encoder will not write
  // one, and the decoder refuses a frame that claims one.
  const PublicKey full = scheme_.build_public_key(41);
  const DghvParams& params = full.params;
  for (u32 count = 1; count < params.tau; ++count) {
    PublicKey partial = full;
    partial.x.resize(count);
    EXPECT_THROW((void)encode_public_key(partial), SerializeError) << count;

    ByteWriter w;
    w.begin_frame(WireTag::kPublicKey);
    w.put_u32(params.lambda);
    w.put_u64(params.rho);
    w.put_u64(params.eta);
    w.put_u64(params.gamma);
    w.put_u32(params.tau);
    w.put_biguint(full.x0);
    w.put_u32(count);
    for (u32 i = 0; i < count; ++i) w.put_biguint(full.x[i]);
    w.finish_frame();
    EXPECT_THROW((void)decode_public_key(w.bytes()), SerializeError) << count;
  }
}

TEST_F(SerializeTest, HostileTauDoesNotAllocate) {
  // A public-key frame whose params claim tau = 2^32 - 1 (internally
  // consistent, so it passes validate()) with a matching element count
  // must be rejected before reserving gigabytes for the element vector.
  DghvParams params = scheme_.params();
  params.tau = 0xFFFFFFFFu;
  ByteWriter w;
  w.begin_frame(WireTag::kPublicKey);
  w.put_u32(params.lambda);
  w.put_u64(params.rho);
  w.put_u64(params.eta);
  w.put_u64(params.gamma);
  w.put_u32(params.tau);
  w.put_biguint(scheme_.public_key().x0);
  w.put_u32(params.tau);  // element count matches tau, but no bytes behind it
  w.finish_frame();
  EXPECT_THROW((void)decode_public_key(w.bytes()), SerializeError);
}

TEST_F(SerializeTest, SecretKeyTagIsNotInterchangeable) {
  // Key material must not decode under an operand tag and vice versa.
  const Bytes secret = encode_secret_key(scheme_.secret_key());
  EXPECT_THROW((void)decode_biguint(secret), SerializeError);
  const Bytes operand = encode_biguint(scheme_.secret_key());
  EXPECT_THROW((void)decode_secret_key(operand), SerializeError);
}

// --- ciphertexts -----------------------------------------------------------

TEST_F(SerializeTest, CiphertextRoundTripPreservesValueAndNoise) {
  Ciphertext c = scheme_.encrypt(true);
  const Ciphertext back = decode_ciphertext(encode_ciphertext(c));
  EXPECT_EQ(back.value, c.value);
  EXPECT_EQ(back.noise_bits, c.noise_bits);
  EXPECT_TRUE(scheme_.decrypt(back));
}

TEST_F(SerializeTest, CiphertextStreamRoundTrip) {
  std::vector<Ciphertext> cs;
  for (int i = 0; i < 5; ++i) cs.push_back(scheme_.encrypt(i % 2 == 0));
  const std::vector<Ciphertext> back = decode_ciphertexts(encode_ciphertexts(cs));
  ASSERT_EQ(back.size(), cs.size());
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(back[i].value, cs[i].value);
    EXPECT_EQ(scheme_.decrypt(back[i]), i % 2 == 0);
  }
}

TEST_F(SerializeTest, EmptyCiphertextStreamDecodesEmpty) {
  EXPECT_TRUE(decode_ciphertexts({}).empty());
}

// --- graphs ----------------------------------------------------------------

TEST_F(SerializeTest, GraphTopologyRoundTripEvaluatesBitExact) {
  // Record an adder, ship topology + inputs over the wire, rebuild, and
  // check the rebuilt graph evaluates to the very same ciphertexts.
  Graph graph(scheme_);
  EncryptedInt a = encrypt_int(scheme_, 11, 4);
  EncryptedInt b = encrypt_int(scheme_, 6, 4);
  const std::vector<Wire> wa = graph.inputs(a);
  const std::vector<Wire> wb = graph.inputs(b);
  const Ciphertext zero_ct = scheme_.encrypt(false);
  const Wire zero = graph.input(zero_ct);
  Graph::AddResult r = graph.add(wa, wb, zero);
  std::vector<Wire> outputs = std::move(r.sum);
  outputs.push_back(r.carry_out);

  const GraphTopology topology = GraphTopology::capture(graph, outputs);
  const Bytes wire = encode_graph(topology);
  const GraphTopology back = decode_graph(wire);
  EXPECT_EQ(back.nodes.size(), topology.nodes.size());
  EXPECT_EQ(back.input_count(), 9u);  // 2 x 4 bits + zero

  // Ship the input ciphertexts separately, as a Request would.
  std::vector<Ciphertext> inputs;
  for (const Ciphertext& bit : a) inputs.push_back(bit);
  for (const Ciphertext& bit : b) inputs.push_back(bit);
  inputs.push_back(zero_ct);
  const std::vector<Ciphertext> shipped =
      decode_ciphertexts(encode_ciphertexts(inputs));

  Graph rebuilt(scheme_);
  const std::vector<Wire> rebuilt_outputs = back.build(rebuilt, shipped);

  Evaluator evaluator;
  const std::vector<Ciphertext> direct = evaluator.evaluate(graph, outputs);
  // The zero input re-encrypts identically only because we shipped the
  // same ciphertext; both graphs see identical input values.
  const std::vector<Ciphertext> remote = evaluator.evaluate(rebuilt, rebuilt_outputs);
  ASSERT_EQ(direct.size(), remote.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].value, remote[i].value) << "output " << i;
  }
  EXPECT_EQ(decrypt_int(scheme_, remote), 17u);
}

TEST_F(SerializeTest, GraphWithForwardReferenceIsRejected) {
  GraphTopology topology;
  topology.nodes.push_back({GateOp::kInput, Wire::kInvalid, Wire::kInvalid});
  topology.nodes.push_back({GateOp::kAnd, 0, 2});  // operand 2 not yet recorded
  topology.nodes.push_back({GateOp::kInput, Wire::kInvalid, Wire::kInvalid});
  topology.outputs = {1};
  EXPECT_THROW((void)encode_graph(topology), SerializeError);
}

TEST_F(SerializeTest, GraphWithBadOutputOrOpIsRejected) {
  ByteWriter w;
  w.begin_frame(WireTag::kGraph);
  w.put_u32(1);
  w.put_u8(0);     // one input node
  w.put_u32(1);
  w.put_u32(7);    // output references node 7 of 1
  w.finish_frame();
  EXPECT_THROW((void)decode_graph(w.bytes()), SerializeError);

  ByteWriter w2;
  w2.begin_frame(WireTag::kGraph);
  w2.put_u32(2);
  w2.put_u8(0);
  w2.put_u8(9);    // unknown gate op
  w2.put_u32(0);
  w2.put_u32(0);
  w2.put_u32(1);
  w2.put_u32(1);
  w2.finish_frame();
  EXPECT_THROW((void)decode_graph(w2.bytes()), SerializeError);
}

TEST_F(SerializeTest, DuplicateGatesCollapseButOutputsStayCorrect) {
  // A hand-built topology may repeat a gate; CSE collapses the duplicates
  // on rebuild and the output map must still resolve.
  GraphTopology topology;
  topology.nodes.push_back({GateOp::kInput, Wire::kInvalid, Wire::kInvalid});
  topology.nodes.push_back({GateOp::kInput, Wire::kInvalid, Wire::kInvalid});
  topology.nodes.push_back({GateOp::kAnd, 0, 1});
  topology.nodes.push_back({GateOp::kAnd, 0, 1});  // duplicate of node 2
  topology.outputs = {3};

  Graph graph(scheme_);
  const std::vector<Ciphertext> inputs = {scheme_.encrypt(true), scheme_.encrypt(true)};
  const std::vector<Wire> outputs = topology.build(graph, inputs);
  EXPECT_EQ(graph.and_gates(), 1u);  // collapsed

  Evaluator evaluator;
  const std::vector<Ciphertext> result = evaluator.evaluate(graph, outputs);
  EXPECT_TRUE(scheme_.decrypt(result[0]));
}

TEST_F(SerializeTest, InputCountMismatchIsRejected) {
  GraphTopology topology;
  topology.nodes.push_back({GateOp::kInput, Wire::kInvalid, Wire::kInvalid});
  topology.nodes.push_back({GateOp::kInput, Wire::kInvalid, Wire::kInvalid});
  topology.nodes.push_back({GateOp::kXor, 0, 1});
  topology.outputs = {2};

  Graph graph(scheme_);
  const std::vector<Ciphertext> too_few = {scheme_.encrypt(true)};
  EXPECT_THROW((void)topology.build(graph, too_few), SerializeError);
}

// --- malformed buffers -----------------------------------------------------

TEST_F(SerializeTest, TruncationAtEveryLengthIsRejectedNotUB) {
  // Chop every wire object at every prefix length: decoding must throw
  // SerializeError each time (never crash/UB -- the ASan cell watches).
  Graph graph(scheme_);
  const Wire a = graph.input(scheme_.encrypt(true));
  const Wire b = graph.input(scheme_.encrypt(false));
  const std::vector<Wire> outs = {graph.gate_and(a, b)};

  const std::vector<Bytes> frames = {
      encode_biguint(scheme_.public_key().x0),
      encode_params(scheme_.params()),
      encode_public_key(scheme_.build_public_key(41)),
      encode_public_key(scheme_.public_key()),
      encode_secret_key(scheme_.secret_key()),
      encode_ciphertext(scheme_.encrypt(true)),
      encode_graph(GraphTopology::capture(graph, outs)),
  };
  const auto decoders = std::vector<std::function<void(std::span<const u8>)>>{
      [](std::span<const u8> s) { (void)decode_biguint(s); },
      [](std::span<const u8> s) { (void)decode_params(s); },
      [](std::span<const u8> s) { (void)decode_public_key(s); },
      [](std::span<const u8> s) { (void)decode_public_key(s); },
      [](std::span<const u8> s) { (void)decode_secret_key(s); },
      [](std::span<const u8> s) { (void)decode_ciphertext(s); },
      [](std::span<const u8> s) { (void)decode_graph(s); },
  };

  for (std::size_t f = 0; f < frames.size(); ++f) {
    const Bytes& whole = frames[f];
    for (std::size_t len = 0; len < whole.size(); ++len) {
      EXPECT_THROW(decoders[f](std::span<const u8>(whole.data(), len)), SerializeError)
          << "frame " << f << " truncated to " << len << " of " << whole.size();
    }
    decoders[f](whole);  // the untruncated buffer still decodes
  }
}

// --- request frames (core::Request over the wire) --------------------------

TEST_F(SerializeTest, RequestRoundTripCarriesSpecAndPayloads) {
  core::Request request;
  request.spec.kind = core::CircuitKind::kMul;
  request.spec.width = 8;
  request.spec.lowering.strategy = LoweringStrategy::kCarrySave;
  request.inputs = {0xAA, 0xBB, 0xCC};

  const Bytes wire = encode_request(request);
  const core::Request back = core::decode_request(wire);
  EXPECT_EQ(back.spec, request.spec);
  EXPECT_EQ(back.graph, request.graph);
  EXPECT_EQ(back.inputs, request.inputs);

  // A graph request carries its topology payload through the same frame.
  Graph graph(scheme_);
  const Wire a = graph.input(scheme_.encrypt(true));
  const Wire b = graph.input(scheme_.encrypt(false));
  core::Request graph_request;
  graph_request.spec.kind = core::CircuitKind::kGraph;
  const std::vector<Wire> graph_outs = {graph.gate_and(a, b)};
  graph_request.graph = encode_graph(GraphTopology::capture(graph, graph_outs));
  graph_request.inputs = encode_ciphertext(scheme_.encrypt(true));
  const core::Request graph_back = core::decode_request(encode_request(graph_request));
  EXPECT_EQ(graph_back.spec, graph_request.spec);
  EXPECT_EQ(graph_back.graph, graph_request.graph);
  EXPECT_EQ(graph_back.inputs, graph_request.inputs);
}

TEST_F(SerializeTest, RequestTruncationAtEveryLengthIsRejected) {
  core::Request request;
  request.spec.kind = core::CircuitKind::kAdder;
  request.spec.width = 4;
  request.inputs = {1, 2, 3, 4, 5};
  const Bytes whole = encode_request(request);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    EXPECT_THROW((void)core::decode_request(std::span<const u8>(whole.data(), len)),
                 SerializeError)
        << "truncated to " << len << " of " << whole.size();
  }
  (void)core::decode_request(whole);  // the untruncated buffer still decodes
}

TEST_F(SerializeTest, RequestHostileFieldBytesAreRejected) {
  core::Request request;
  request.spec.kind = core::CircuitKind::kLessThan;
  request.spec.width = 4;
  const Bytes good = encode_request(request);
  // Frame header is magic(4) + version(1) + tag(1) + length(8); the spec
  // payload starts right after: kind u8, width u32 (LE), strategy u8.
  constexpr std::size_t kKindOffset = 14;
  constexpr std::size_t kWidthOffset = 15;
  constexpr std::size_t kStrategyOffset = 19;

  Bytes bad_kind = good;
  bad_kind[kKindOffset] = 0x63;
  EXPECT_THROW((void)core::decode_request(bad_kind), SerializeError);

  Bytes bad_strategy = good;
  bad_strategy[kStrategyOffset] = 0x7;
  EXPECT_THROW((void)core::decode_request(bad_strategy), SerializeError);

  Bytes zero_width = good;
  zero_width[kWidthOffset] = 0;
  EXPECT_THROW((void)core::decode_request(zero_width), SerializeError);

  Bytes huge_width = good;
  huge_width[kWidthOffset + 2] = 0xFF;  // width |= 0xFF0000: far past the cap
  EXPECT_THROW((void)core::decode_request(huge_width), SerializeError);

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_THROW((void)core::decode_request(trailing), SerializeError);
}

// --- envelope frames (the fleet transport header) --------------------------

TEST_F(SerializeTest, EnvelopeRoundTripCarriesHeaderAndPayload) {
  Envelope envelope;
  envelope.type = MessageType::kSubmit;
  envelope.session = 0x1122334455667788ull;
  envelope.request_id = 42;
  envelope.payload = {0xDE, 0xAD, 0xBE, 0xEF};

  const Envelope back = decode_envelope(encode_envelope(envelope));
  EXPECT_EQ(back.type, envelope.type);
  EXPECT_EQ(back.session, envelope.session);
  EXPECT_EQ(back.request_id, envelope.request_id);
  EXPECT_EQ(back.payload, envelope.payload);

  // An empty payload is legal (kStats, kShutdown, kShutdownAck carry none).
  Envelope bare;
  bare.type = MessageType::kShutdownAck;
  const Envelope bare_back = decode_envelope(encode_envelope(bare));
  EXPECT_EQ(bare_back.type, MessageType::kShutdownAck);
  EXPECT_TRUE(bare_back.payload.empty());
}

TEST_F(SerializeTest, EnvelopeTruncationAtEveryLengthIsRejected) {
  Envelope envelope;
  envelope.type = MessageType::kCreateSession;
  envelope.session = 7;
  envelope.request_id = 9;
  envelope.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const Bytes whole = encode_envelope(envelope);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    EXPECT_THROW((void)decode_envelope(std::span<const u8>(whole.data(), len)),
                 SerializeError)
        << "truncated to " << len << " of " << whole.size();
  }
  (void)decode_envelope(whole);  // the untruncated buffer still decodes
}

TEST_F(SerializeTest, EnvelopeHostileBytesAreRejected) {
  Envelope envelope;
  envelope.type = MessageType::kStats;
  const Bytes good = encode_envelope(envelope);
  // Envelope payload starts after the 14-byte frame header: type u8,
  // session u64 (LE), request id u64 (LE), then the inner payload bytes.
  constexpr std::size_t kTypeOffset = 14;

  for (const u8 hostile_type : {u8{0}, u8{12}, u8{0x63}, u8{0xFF}}) {
    Bytes bad_type = good;
    bad_type[kTypeOffset] = hostile_type;
    EXPECT_THROW((void)decode_envelope(bad_type), SerializeError)
        << "message type byte " << static_cast<unsigned>(hostile_type);
  }

  Bytes bad_tag = good;
  bad_tag[5] = 0x02;  // a valid tag, but not kEnvelope
  EXPECT_THROW((void)decode_envelope(bad_tag), SerializeError);

  Bytes bad_length = good;
  bad_length[6] ^= 0x01;  // length prefix no longer matches the payload
  EXPECT_THROW((void)decode_envelope(bad_length), SerializeError);

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_envelope(trailing), SerializeError);
}

TEST_F(SerializeTest, EnvelopeDeadlineExtensionRoundTrips) {
  Envelope envelope;
  envelope.type = MessageType::kSubmit;
  envelope.session = 3;
  envelope.request_id = 5;
  envelope.payload = {0xAB, 0xCD};
  envelope.deadline_ms = 1234;

  const Bytes with_deadline = encode_envelope(envelope);
  const Envelope back = decode_envelope(with_deadline);
  EXPECT_EQ(back.deadline_ms, 1234u);
  EXPECT_EQ(back.type, envelope.type);
  EXPECT_EQ(back.payload, envelope.payload);

  // A deadline-free envelope encodes with NO extension tail: byte-identical
  // to the version-1 layout, so old peers keep parsing it.
  envelope.deadline_ms = 0;
  const Bytes without_deadline = encode_envelope(envelope);
  EXPECT_EQ(with_deadline.size(), without_deadline.size() + 9);  // u8 tag + u64 value
  EXPECT_EQ(decode_envelope(without_deadline).deadline_ms, 0u);

  // Truncating inside the extension tail is rejected, never UB. (Cutting
  // the tail off entirely is the legal deadline-free layout, so the loop
  // starts one byte past it: a tag with no value.)
  for (std::size_t len = without_deadline.size() + 1; len < with_deadline.size(); ++len) {
    Bytes cut(with_deadline.begin(),
              with_deadline.begin() + static_cast<std::ptrdiff_t>(len));
    // Patch the frame length so only the extension itself is short.
    const u64 payload_len = len - 14;
    for (int b = 0; b < 8; ++b) cut[6 + b] = static_cast<u8>(payload_len >> (8 * b));
    EXPECT_THROW((void)decode_envelope(cut), SerializeError)
        << "extension truncated to " << len << " of " << with_deadline.size();
  }
}

TEST_F(SerializeTest, EnvelopeHostileExtensionBytesAreRejected) {
  Envelope envelope;
  envelope.type = MessageType::kStats;
  envelope.deadline_ms = 7;
  const Bytes good = encode_envelope(envelope);
  const std::size_t ext_tag_at = good.size() - 9;  // u8 tag, then u64 value

  Bytes unknown_ext = good;
  unknown_ext[ext_tag_at] = 0x7F;
  EXPECT_THROW((void)decode_envelope(unknown_ext), SerializeError);

  Bytes zero_deadline = good;
  for (std::size_t b = 0; b < 8; ++b) zero_deadline[ext_tag_at + 1 + b] = 0;
  EXPECT_THROW((void)decode_envelope(zero_deadline), SerializeError);

  // Two deadline extensions: the second is a duplicate, not a larger value.
  Bytes duplicated = good;
  duplicated.insert(duplicated.end(), good.begin() + static_cast<std::ptrdiff_t>(ext_tag_at),
                    good.end());
  const u64 payload_len = duplicated.size() - 14;
  for (int b = 0; b < 8; ++b) duplicated[6 + b] = static_cast<u8>(payload_len >> (8 * b));
  EXPECT_THROW((void)decode_envelope(duplicated), SerializeError);
}

TEST_F(SerializeTest, PingPongEnvelopesRoundTrip) {
  Envelope ping;
  ping.type = MessageType::kPing;
  ping.request_id = 11;
  const Envelope ping_back = decode_envelope(encode_envelope(ping));
  EXPECT_EQ(ping_back.type, MessageType::kPing);
  EXPECT_EQ(ping_back.request_id, 11u);
  EXPECT_TRUE(ping_back.payload.empty());

  Envelope pong;
  pong.type = MessageType::kPong;
  pong.request_id = 11;
  EXPECT_EQ(decode_envelope(encode_envelope(pong)).type, MessageType::kPong);
}

TEST_F(SerializeTest, ErrorPayloadRoundTripsAndRejectsHostileCodes) {
  const Bytes payload =
      encode_error_payload(WireErrorCode::kShuttingDown, "draining, come back later");
  const auto [code, message] = decode_error_payload(payload);
  EXPECT_EQ(code, WireErrorCode::kShuttingDown);
  EXPECT_EQ(message, "draining, come back later");

  // The empty diagnostic is legal; the code byte alone carries meaning.
  const auto [bare_code, bare_message] =
      decode_error_payload(encode_error_payload(WireErrorCode::kInternal, ""));
  EXPECT_EQ(bare_code, WireErrorCode::kInternal);
  EXPECT_TRUE(bare_message.empty());

  for (const u8 hostile_code : {u8{0}, u8{6}, u8{0xFF}}) {
    Bytes bad = payload;
    bad[0] = hostile_code;
    EXPECT_THROW((void)decode_error_payload(bad), SerializeError)
        << "error code byte " << static_cast<unsigned>(hostile_code);
  }

  EXPECT_THROW((void)decode_error_payload(std::span<const u8>{}), SerializeError);
}

// --- response frames (core::Response over the wire) -------------------------

TEST_F(SerializeTest, ResponseRoundTripCarriesStatusAndCounters) {
  core::Response response;
  response.status = core::ResponseStatus::kOverloaded;
  response.error = "admission queue at its bound (3 queued)";
  response.outputs = {0x10, 0x20, 0x30};
  response.retry_after_ms = 2.5;
  response.and_gates = 12;
  response.levels = 3;
  response.shared_batches = 4;
  response.transforms_executed = 18;
  response.transforms_avoided = -6;
  response.queue_ms = 1.25;
  response.exec_ms = 9.75;

  const core::Response back = core::decode_response(core::encode_response(response));
  EXPECT_EQ(back.status, response.status);
  EXPECT_EQ(back.error, response.error);
  EXPECT_EQ(back.outputs, response.outputs);
  EXPECT_EQ(back.retry_after_ms, response.retry_after_ms);
  EXPECT_EQ(back.and_gates, response.and_gates);
  EXPECT_EQ(back.levels, response.levels);
  EXPECT_EQ(back.shared_batches, response.shared_batches);
  EXPECT_EQ(back.transforms_executed, response.transforms_executed);
  EXPECT_EQ(back.transforms_avoided, response.transforms_avoided);
  EXPECT_EQ(back.queue_ms, response.queue_ms);
  EXPECT_EQ(back.exec_ms, response.exec_ms);
}

TEST_F(SerializeTest, ResponseTruncationAndHostileBytesAreRejected) {
  core::Response response;
  response.status = core::ResponseStatus::kOk;
  response.outputs = {9, 8, 7};
  response.and_gates = 1;
  const Bytes whole = core::encode_response(response);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    EXPECT_THROW((void)core::decode_response(std::span<const u8>(whole.data(), len)),
                 SerializeError)
        << "truncated to " << len << " of " << whole.size();
  }
  (void)core::decode_response(whole);

  // The status byte sits right after the 14-byte frame header.
  Bytes bad_status = whole;
  bad_status[14] = 0x2A;
  EXPECT_THROW((void)core::decode_response(bad_status), SerializeError);

  Bytes trailing = whole;
  trailing.push_back(0);
  EXPECT_THROW((void)core::decode_response(trailing), SerializeError);
}

// --- the documented wire example -------------------------------------------

TEST_F(SerializeTest, DocumentedSubmitEnvelopeHexExampleRoundTrips) {
  // The exact 75-byte kSubmit envelope worked through byte by byte in
  // docs/wire-protocol.md: session 7, request id 1, wrapping the kRequest
  // frame for spec {and, width 1, ripple-carry} with empty graph/input
  // payloads. Keep the doc and this array in sync.
  const Bytes documented = {
      0x48, 0x4D, 0x57, 0x31, 0x01, 0x09, 0x3D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x03, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x48, 0x4D, 0x57, 0x31, 0x01, 0x07, 0x16, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };

  core::Request request;
  request.spec.kind = core::CircuitKind::kAnd;
  request.spec.width = 1;
  request.spec.lowering.strategy = LoweringStrategy::kRippleCarry;

  Envelope envelope;
  envelope.type = MessageType::kSubmit;
  envelope.session = 7;
  envelope.request_id = 1;
  envelope.payload = core::encode_request(request);
  EXPECT_EQ(encode_envelope(envelope), documented);

  const Envelope back = decode_envelope(documented);
  EXPECT_EQ(back.type, MessageType::kSubmit);
  EXPECT_EQ(back.session, 7u);
  EXPECT_EQ(back.request_id, 1u);
  const core::Request decoded = core::decode_request(back.payload);
  EXPECT_EQ(decoded.spec, request.spec);
  EXPECT_TRUE(decoded.graph.empty());
  EXPECT_TRUE(decoded.inputs.empty());
}

TEST_F(SerializeTest, DocumentedPingEnvelopeHexExampleRoundTrips) {
  // The exact 48-byte kPing envelope worked through byte by byte in
  // docs/wire-protocol.md: request id 3, empty payload, and a 250 ms
  // deadline riding the versioned extension tail. Keep the doc and this
  // array in sync.
  const Bytes documented = {
      0x48, 0x4D, 0x57, 0x31, 0x01, 0x09, 0x22, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x01, 0xFA, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };

  Envelope ping;
  ping.type = MessageType::kPing;
  ping.request_id = 3;
  ping.deadline_ms = 250;
  EXPECT_EQ(encode_envelope(ping), documented);

  const Envelope back = decode_envelope(documented);
  EXPECT_EQ(back.type, MessageType::kPing);
  EXPECT_EQ(back.request_id, 3u);
  EXPECT_EQ(back.deadline_ms, 250u);
  EXPECT_TRUE(back.payload.empty());
}

TEST_F(SerializeTest, DocumentedCreateSessionEnvelopeHexExampleRoundTrips) {
  // The exact 215-byte kCreateSession envelope worked through byte by byte
  // in docs/wire-protocol.md: request id 1 carrying fhe::tenant_keygen's
  // material at the smallest parameters validate() accepts (lambda 1,
  // rho 1, eta 64, gamma 128, tau 1), seed 6. Keep the doc and this array
  // in sync.
  const Bytes documented = {
      0x48, 0x4D, 0x57, 0x31, 0x01, 0x09, 0xC9, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xB0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x48, 0x4D, 0x57, 0x31, 0x01, 0x02,
      0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x48, 0x4D, 0x57, 0x31, 0x01,
      0x01, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x67, 0xCF, 0x7C, 0xB8, 0x5E, 0x41, 0x61, 0x77, 0x75, 0x2C, 0x21, 0xFF, 0xCB,
      0x4F, 0x8C, 0xB8, 0x48, 0x4D, 0x57, 0x31, 0x01, 0x05, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x6A, 0xC5, 0x7C, 0x6C, 0x93,
      0x30, 0x4F, 0x75, 0xCD, 0x6A, 0x2E, 0x50, 0xC6, 0xF5, 0x90, 0xAC, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x10, 0x40, 0x48, 0x4D, 0x57, 0x31, 0x01, 0x05, 0x20, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xB8, 0x2B, 0xC2, 0xCC,
      0x01, 0x2F, 0x60, 0xDB, 0x91, 0x01, 0xD5, 0x66, 0xE0, 0x2D, 0x05, 0x25, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x10, 0x40,
  };
  ASSERT_EQ(documented.size(), 215u);

  DghvParams params;
  params.lambda = 1;
  params.rho = 1;
  params.eta = 64;
  params.gamma = 128;
  params.tau = 1;
  const SessionCreate create = tenant_keygen(params, 6).create;

  Envelope envelope;
  envelope.type = MessageType::kCreateSession;
  envelope.request_id = 1;
  envelope.payload = encode_session_create(create);
  EXPECT_EQ(encode_envelope(envelope), documented);

  const Envelope back = decode_envelope(documented);
  EXPECT_EQ(back.type, MessageType::kCreateSession);
  EXPECT_EQ(back.session, 0u);
  EXPECT_EQ(back.request_id, 1u);
  const SessionCreate decoded = decode_session_create(back.payload);
  EXPECT_NO_THROW(decoded.validate());
  EXPECT_EQ(decoded.params.gamma, 128u);
  EXPECT_EQ(decoded.x0, create.x0);
  EXPECT_EQ(decoded.x0.bit_length(), 128u);
  EXPECT_EQ(decoded.zero.value, create.zero.value);
  EXPECT_EQ(decoded.one.value, create.one.value);
  EXPECT_EQ(decoded.one.noise_bits, 4.0);
}

TEST_F(SerializeTest, CorruptedHeaderBytesAreRejected) {
  const Bytes good = encode_ciphertext(scheme_.encrypt(true));

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)decode_ciphertext(bad_magic), SerializeError);

  Bytes bad_version = good;
  bad_version[4] = 0x7F;
  EXPECT_THROW((void)decode_ciphertext(bad_version), SerializeError);

  Bytes bad_tag = good;
  bad_tag[5] = 0x66;
  EXPECT_THROW((void)decode_ciphertext(bad_tag), SerializeError);

  Bytes bad_length = good;
  bad_length[6] ^= 0x01;  // length prefix no longer matches the payload
  EXPECT_THROW((void)decode_ciphertext(bad_length), SerializeError);

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_ciphertext(trailing), SerializeError);
}

}  // namespace
}  // namespace hemul::fhe
