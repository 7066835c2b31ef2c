#include "net/protocol.hpp"

#include "net/errors.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace tvviz::net {

util::Bytes HelloInfo::serialize() const {
  util::ByteWriter w(4 + util::varint_size(role.size()) + role.size() +
                     util::varint_size(client_id.size()) + client_id.size() +
                     4 + 4);
  w.u32(version);
  w.str(role);
  w.str(client_id);
  w.u32(static_cast<std::uint32_t>(last_acked_step));
  w.u32(queue_frames);
  return w.take();
}

HelloInfo HelloInfo::deserialize(std::span<const std::uint8_t> payload) {
  try {
    util::ByteReader r(payload);
    HelloInfo info;
    info.version = r.u32();
    if (info.version != kProtocolVersion) return info;
    info.role = r.str();
    info.client_id = r.str();
    info.last_acked_step = static_cast<std::int32_t>(r.u32());
    info.queue_frames = r.u32();
    if (!r.done())
      throw WireError("net: " + std::to_string(r.remaining()) +
                      " trailing bytes after the hello");
    return info;
  } catch (const std::out_of_range&) {
    throw WireError("net: truncated hello payload (" +
                    std::to_string(payload.size()) + " bytes)");
  }
}

HelloInfo parse_hello(const NetMessage& msg) {
  if (msg.type != MsgType::kHello)
    throw WireError("net: parse_hello on a non-hello message");
  return HelloInfo::deserialize(msg.payload);
}

NetMessage make_hello(const HelloInfo& info) {
  NetMessage msg;
  msg.type = MsgType::kHello;
  msg.payload = info.serialize();
  return msg;
}

util::Bytes ControlEvent::serialize() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.f64(azimuth);
  w.f64(elevation);
  w.f64(zoom);
  w.str(name);
  return w.take();
}

ControlEvent ControlEvent::deserialize(std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    ControlEvent e;
    const std::uint8_t raw_kind = r.u8();
    if (raw_kind > static_cast<std::uint8_t>(ControlKind::kStop))
      throw WireError("net: invalid control kind " + std::to_string(raw_kind));
    e.kind = static_cast<ControlKind>(raw_kind);
    e.azimuth = r.f64();
    e.elevation = r.f64();
    e.zoom = r.f64();
    e.name = r.str();
    if (!r.done())
      throw WireError("net: " + std::to_string(r.remaining()) +
                      " trailing bytes after the control event");
    // The view render::Camera accepts: a NaN or infinite ray would otherwise
    // reach the renderer from any viewer.
    if (e.kind == ControlKind::kSetView &&
        !(std::isfinite(e.azimuth) && std::isfinite(e.elevation) &&
          std::isfinite(e.zoom) && e.zoom > 0.0))
      throw WireError("net: control event carries an invalid view");
    return e;
  } catch (const std::out_of_range&) {
    throw WireError("net: truncated control event (" +
                    std::to_string(data.size()) + " bytes)");
  }
}

NetMessage make_error(const std::string& message) {
  NetMessage msg;
  msg.type = MsgType::kError;
  msg.payload = util::SharedBytes::copy_of(
      {reinterpret_cast<const std::uint8_t*>(message.data()), message.size()});
  return msg;
}

std::string error_text(const NetMessage& msg) {
  return std::string(msg.payload.begin(), msg.payload.end());
}

std::size_t header_wire_size(const NetMessage& msg) noexcept {
  return 1 + 4 + util::varint_size(msg.codec.size()) +
         msg.codec.size() + util::varint_size(msg.payload.size());
}

namespace {

void write_header(util::ByteWriter& w, const NetMessage& msg) {
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u32(static_cast<std::uint32_t>(msg.frame_index));
  w.str(msg.codec);
  w.varint(msg.payload.size());
}

/// Shared validating parse: fills every header field of `msg` and returns
/// the payload's [offset, length) within `data`. Copying vs. viewing the
/// payload slice is the caller's choice.
std::pair<std::size_t, std::size_t> parse_frame(
    std::span<const std::uint8_t> data, NetMessage& msg) {
  // A corrupt or truncated WAN frame must fail loudly and descriptively, not
  // produce an out-of-range enum or trigger an over-long read. Every length
  // is validated against the bytes actually present before it is trusted.
  try {
    util::ByteReader r(data);
    const std::uint8_t raw_type = r.u8();
    if (raw_type > kMaxMsgType)
      throw WireError("net: invalid message type " +
                               std::to_string(raw_type));
    msg.type = static_cast<MsgType>(raw_type);
    msg.frame_index = static_cast<std::int32_t>(r.u32());
    const std::size_t codec_len = r.varint();
    if (codec_len > r.remaining())
      throw WireError(
          "net: codec name length " + std::to_string(codec_len) +
          " exceeds the " + std::to_string(r.remaining()) +
          " bytes remaining in the frame");
    const auto codec_bytes = r.raw(codec_len);
    msg.codec.assign(codec_bytes.begin(), codec_bytes.end());
    const std::size_t len = r.varint();
    if (len > r.remaining())
      throw WireError(
          "net: payload length " + std::to_string(len) + " exceeds the " +
          std::to_string(r.remaining()) + " bytes remaining in the frame");
    const auto s = r.raw(len);
    if (!r.done())
      throw WireError("net: " + std::to_string(r.remaining()) +
                               " trailing bytes after message payload");
    return {static_cast<std::size_t>(s.data() - data.data()), len};
  } catch (const std::out_of_range& e) {
    throw WireError(std::string("net: truncated message frame (") +
                             e.what() + ")");
  }
}

}  // namespace

util::Bytes serialize_header(const NetMessage& msg) {
  util::ByteWriter w(header_wire_size(msg));
  write_header(w, msg);
  return w.take();
}

util::Bytes serialize_message(const NetMessage& msg) {
  util::ByteWriter w(header_wire_size(msg) + msg.payload.size());
  write_header(w, msg);
  w.raw(msg.payload);
  return w.take();
}

NetMessage deserialize_message(std::span<const std::uint8_t> data) {
  NetMessage msg;
  const auto [offset, len] = parse_frame(data, msg);
  msg.payload = util::SharedBytes::copy_of(data.subspan(offset, len));
  return msg;
}

NetMessage deserialize_frame(util::SharedBytes body) {
  NetMessage msg;
  const auto [offset, len] = parse_frame(body, msg);
  msg.payload = body.view(offset, len);
  return msg;
}

// ------------------------------------------------------- parallel pieces --

namespace {
const std::string kPiecesPrefixStr = kPiecesCodecPrefix;
}  // namespace

util::Bytes pack_piece(int row0, std::span<const std::uint8_t> encoded) {
  util::ByteWriter w(4 + util::varint_size(encoded.size()) + encoded.size());
  w.u32(static_cast<std::uint32_t>(row0));
  w.varint(encoded.size());
  w.raw(encoded);
  return w.take();
}

NetMessage make_pieces_frame(int step, const std::string& codec,
                             std::span<const util::SharedBytes> records) {
  std::size_t total = 0;
  for (const auto& r : records) total += r.size();
  util::ByteWriter w(total);
  for (const auto& r : records) w.raw(r);
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = step;
  msg.codec = kPiecesPrefixStr + codec;
  msg.payload = w.take();
  return msg;
}

bool is_pieces_frame(const NetMessage& msg) noexcept {
  return msg.type == MsgType::kFrame && msg.codec.starts_with(kPiecesPrefixStr);
}

PiecesFrameParts split_pieces_frame(const NetMessage& msg) {
  if (!is_pieces_frame(msg))
    throw WireError("net: not a pieces-container frame (codec '" + msg.codec +
                    "')");
  PiecesFrameParts parts;
  parts.codec = msg.codec.substr(kPiecesPrefixStr.size());
  try {
    util::ByteReader r(msg.payload);
    while (!r.done()) {
      const int row0 = static_cast<int>(r.u32());
      const auto s = r.raw(r.varint());
      parts.pieces.push_back(
          {row0, msg.payload.view(
                     static_cast<std::size_t>(s.data() - msg.payload.data()),
                     s.size())});
    }
  } catch (const std::out_of_range&) {
    throw WireError("net: truncated pieces-container payload");
  }
  return parts;
}

}  // namespace tvviz::net
