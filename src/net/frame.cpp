#include "net/frame.hpp"

#include <chrono>
#include <thread>

#include "net/fault.hpp"

namespace hemul::net {

namespace {

/// Envelope header: u32 magic | u8 version | u8 tag | u64 payload length.
constexpr std::size_t kHeaderBytes = 14;

/// Pulls one raw envelope frame (header + payload) off the socket without
/// decoding the payload.
fhe::Bytes read_frame_bytes(Socket& socket) {
  fhe::Bytes buffer(kHeaderBytes);
  socket.recv_exact(buffer);

  // Validate the header before trusting the length: a peer speaking the
  // wrong protocol fails here with a SerializeError, not a huge recv.
  fhe::ByteReader header(buffer);
  if (header.get_u32() != fhe::kWireMagic) {
    throw fhe::SerializeError("transport: bad magic (not an HMW1 stream)");
  }
  const u8 version = header.get_u8();
  if (version != fhe::kWireVersion) {
    throw fhe::SerializeError("transport: unsupported wire version " +
                              std::to_string(version));
  }
  const u8 tag = header.get_u8();
  if (tag != static_cast<u8>(fhe::WireTag::kEnvelope)) {
    throw fhe::SerializeError("transport: expected an envelope frame, got tag " +
                              std::to_string(tag));
  }
  const u64 payload = header.get_u64();
  if (payload > kMaxEnvelopeBytes) {
    throw fhe::SerializeError("transport: envelope length " + std::to_string(payload) +
                              " exceeds the frame bound");
  }

  buffer.resize(kHeaderBytes + payload);
  socket.recv_exact(std::span<u8>(buffer).subspan(kHeaderBytes));
  return buffer;
}

void fault_sleep(const FaultInjector& injector) {
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(injector.plan().delay_ms));
}

}  // namespace

fhe::Envelope read_envelope(Socket& socket) {
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  for (;;) {
    fhe::Bytes buffer = read_frame_bytes(socket);
    if (injector) {
      const u64 index = socket.next_fault_index(/*outbound=*/false);
      const FaultAction action = injector->decide(FaultDirection::kInbound, index);
      if (action != FaultAction::kNone) injector->record(action);
      if (action == FaultAction::kDrop) continue;  // lost in transit: read on
      if (action == FaultAction::kDelay) fault_sleep(*injector);
      if (action == FaultAction::kCorrupt && buffer.size() > kHeaderBytes) {
        // Flip one payload byte; the frame header survives, so this models
        // in-flight corruption the decode layer must reject or absorb.
        buffer[kHeaderBytes +
               injector->corrupt_offset(index, buffer.size() - kHeaderBytes)] ^= 0x01;
      }
    }
    return fhe::decode_envelope(buffer);
  }
}

void write_envelope(Socket& socket, const fhe::Envelope& envelope) {
  fhe::Bytes frame = fhe::encode_envelope(envelope);
  if (const std::shared_ptr<FaultInjector> injector = fault_injector()) {
    const u64 index = socket.next_fault_index(/*outbound=*/true);
    const FaultAction action = injector->decide(FaultDirection::kOutbound, index);
    if (action != FaultAction::kNone) injector->record(action);
    switch (action) {
      case FaultAction::kDrop:
        return;  // swallowed: the peer never sees this frame
      case FaultAction::kDelay:
        fault_sleep(*injector);
        break;
      case FaultAction::kTruncate:
        // Half a frame, then a dead socket: the peer observes a mid-frame
        // close (NetError), the canonical crashed-peer signature.
        socket.send_all(std::span<const u8>(frame).first(frame.size() / 2));
        socket.shutdown_both();
        return;
      case FaultAction::kCorrupt:
        if (frame.size() > kHeaderBytes) {
          frame[kHeaderBytes +
                injector->corrupt_offset(index, frame.size() - kHeaderBytes)] ^= 0x01;
        }
        break;
      case FaultAction::kRefuse:
      case FaultAction::kNone:
        break;
    }
  }
  socket.send_all(frame);
}

std::string_view shard_state_name(ShardState state) noexcept {
  switch (state) {
    case ShardState::kAlive: return "alive";
    case ShardState::kSuspect: return "suspect";
    case ShardState::kDead: return "dead";
    case ShardState::kReconnecting: return "reconnecting";
  }
  return "?";
}

core::ServiceStats FleetStats::aggregate() const {
  core::ServiceStats total;
  for (const ShardStats& shard : shards) {
    const core::ServiceStats& s = shard.service;
    total.submitted += s.submitted;
    total.completed += s.completed;
    total.rejected_by_noise += s.rejected_by_noise;
    total.bad_requests += s.bad_requests;
    total.internal_errors += s.internal_errors;
    total.shed += s.shed;
    total.expired += s.expired;
    total.sessions_evicted += s.sessions_evicted;
    total.and_gates += s.and_gates;
    total.wavefronts += s.wavefronts;
    total.batches_submitted += s.batches_submitted;
    total.coalesced_requests += s.coalesced_requests;
    total.transforms_executed += s.transforms_executed;
    total.transforms_avoided += s.transforms_avoided;
    total.queue_depth += s.queue_depth;
    total.active_requests += s.active_requests;
    total.sessions += s.sessions;
  }
  return total;
}

namespace {

void write_service_stats(fhe::ByteWriter& w, const core::ServiceStats& s) {
  w.put_u64(s.submitted);
  w.put_u64(s.completed);
  w.put_u64(s.rejected_by_noise);
  w.put_u64(s.bad_requests);
  w.put_u64(s.internal_errors);
  w.put_u64(s.shed);
  w.put_u64(s.expired);
  w.put_u64(s.sessions_evicted);
  w.put_u64(s.and_gates);
  w.put_u64(s.wavefronts);
  w.put_u64(s.batches_submitted);
  w.put_u64(s.coalesced_requests);
  w.put_u64(s.transforms_executed);
  w.put_u64(static_cast<u64>(s.transforms_avoided));
  w.put_u64(s.queue_depth);
  w.put_u64(s.active_requests);
  w.put_u64(s.sessions);
  w.put_u64(0);  // reserved (formerly the scheduler spectrum cache's hits)
  w.put_u64(0);  // reserved (formerly its misses)
  w.put_u32(static_cast<u32>(s.lanes.size()));
  for (const core::LaneStats& lane : s.lanes) {
    w.put_u32(lane.lane);
    w.put_u64(lane.jobs);
    w.put_u64(0);  // reserved (formerly the lane's intra-op tile count)
    w.put_u64(lane.hw_cycles);
    w.put_f64(lane.busy_ms);
  }
}

core::ServiceStats read_service_stats(fhe::ByteReader& r) {
  core::ServiceStats s;
  s.submitted = r.get_u64();
  s.completed = r.get_u64();
  s.rejected_by_noise = r.get_u64();
  s.bad_requests = r.get_u64();
  s.internal_errors = r.get_u64();
  s.shed = r.get_u64();
  s.expired = r.get_u64();
  s.sessions_evicted = r.get_u64();
  s.and_gates = r.get_u64();
  s.wavefronts = r.get_u64();
  s.batches_submitted = r.get_u64();
  s.coalesced_requests = r.get_u64();
  s.transforms_executed = r.get_u64();
  s.transforms_avoided = static_cast<i64>(r.get_u64());
  s.queue_depth = r.get_u64();
  s.active_requests = r.get_u64();
  s.sessions = r.get_u64();
  (void)r.get_u64();  // two reserved slots, written as 0
  (void)r.get_u64();
  const u32 lane_count = r.get_u32();
  // Each lane costs at least its fixed 32 encoded bytes; bound before
  // reserving (hostile-count rule of the serialize layer).
  if (lane_count > r.remaining() / 32) {
    throw fhe::SerializeError("fleet stats: lane count exceeds the buffer");
  }
  s.lanes.reserve(lane_count);
  for (u32 i = 0; i < lane_count; ++i) {
    core::LaneStats lane;
    lane.lane = r.get_u32();
    lane.jobs = r.get_u64();
    (void)r.get_u64();  // reserved slot, written as 0
    lane.hw_cycles = r.get_u64();
    lane.busy_ms = r.get_f64();
    s.lanes.push_back(lane);
  }
  return s;
}

}  // namespace

fhe::Bytes encode_fleet_stats(const FleetStats& stats) {
  fhe::ByteWriter w;
  w.put_u64(stats.sessions_created);
  w.put_u64(stats.forwarded);
  w.put_u64(stats.failed);
  w.put_u64(stats.sessions_rehomed);
  w.put_u64(stats.retries);
  w.put_u64(stats.probes_sent);
  w.put_u32(static_cast<u32>(stats.shards.size()));
  for (const ShardStats& shard : stats.shards) {
    w.put_bytes(std::span<const u8>(reinterpret_cast<const u8*>(shard.address.data()),
                                    shard.address.size()));
    w.put_u8(shard.alive ? 1 : 0);
    w.put_u8(static_cast<u8>(shard.state));
    write_service_stats(w, shard.service);
  }
  return w.take();
}

FleetStats decode_fleet_stats(std::span<const u8> payload) {
  fhe::ByteReader r(payload);
  FleetStats stats;
  stats.sessions_created = r.get_u64();
  stats.forwarded = r.get_u64();
  stats.failed = r.get_u64();
  stats.sessions_rehomed = r.get_u64();
  stats.retries = r.get_u64();
  stats.probes_sent = r.get_u64();
  const u32 shard_count = r.get_u32();
  if (shard_count > r.remaining()) {
    throw fhe::SerializeError("fleet stats: shard count exceeds the buffer");
  }
  stats.shards.reserve(shard_count);
  for (u32 i = 0; i < shard_count; ++i) {
    ShardStats shard;
    const fhe::Bytes address = r.get_bytes();
    shard.address.assign(address.begin(), address.end());
    const u8 alive = r.get_u8();
    if (alive > 1) throw fhe::SerializeError("fleet stats: bad alive flag");
    shard.alive = alive == 1;
    const u8 state = r.get_u8();
    if (state > static_cast<u8>(ShardState::kReconnecting)) {
      throw fhe::SerializeError("fleet stats: bad shard state byte");
    }
    shard.state = static_cast<ShardState>(state);
    shard.service = read_service_stats(r);
    stats.shards.push_back(std::move(shard));
  }
  if (!r.at_end()) throw fhe::SerializeError("fleet stats: trailing bytes");
  return stats;
}

}  // namespace hemul::net
