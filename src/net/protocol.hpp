// Wire protocol of the image-transport framework (§4.1): one kFrame per time
// step flows renderer -> daemon -> display; control events ("remote
// callbacks") flow display -> daemon -> every renderer interface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/shared_bytes.hpp"

namespace tvviz::net {

enum class MsgType : std::uint8_t {
  kHello = 0,        ///< Endpoint registration (HelloInfo payload).
  kFrame = 1,        ///< Complete compressed frame for one time step.
  kControl = 2,      ///< User-control event toward the renderer.
  kShutdown = 3,     ///< Orderly teardown.
  kHelloAck = 4,     ///< Hub accepts a hello (codec: the client id it assigned).
  kAck = 5,          ///< Client acknowledges display of frame_index.
  kError = 6,        ///< Descriptive failure (payload: UTF-8 message), then close.
};

/// Highest MsgType value a well-formed frame may carry (wire validation).
inline constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::kError);

/// Version of the hello handshake and the frame header. Every endpoint ships
/// from this repo, so there is one generation: a hub refuses a hello of any
/// other version.
inline constexpr std::uint32_t kProtocolVersion = 8;

/// Payload of a kHello, the same fixed layout from renderers and viewers:
///
///   u32 version | str role | str client_id | u32 last_acked_step |
///   u32 queue_frames
///
/// A short payload or trailing bytes make the hello malformed.
struct HelloInfo {
  std::uint32_t version = kProtocolVersion;
  std::string role;            ///< "renderer" or "display".
  std::string client_id;       ///< Stable viewer identity; empty = assign one.
  std::int32_t last_acked_step = -1;  ///< Resume point; -1 = from live stream.
  std::uint32_t queue_frames = 0;     ///< Requested send-queue bound; 0 = default.

  util::Bytes serialize() const;
  /// Reads the version first. A hello of another version is returned with
  /// only `version` set: its layout is not this version's to guess, and the
  /// caller refuses it. Throws WireError on a malformed payload of this
  /// version.
  static HelloInfo deserialize(std::span<const std::uint8_t> payload);
};

/// User-control events the display client can send (§5). They are buffered
/// by the renderer and applied to the *next* frame; in-flight rendering is
/// never interrupted.
enum class ControlKind : std::uint8_t {
  kSetView = 0,       ///< New azimuth/elevation (radians) and zoom.
  kSetColorMap = 1,   ///< Switch transfer-function preset by name.
  kSetCodec = 2,      ///< Switch compression method by name.
  kStart = 3,
  kStop = 4,
};

struct ControlEvent {
  ControlKind kind = ControlKind::kStart;
  double azimuth = 0.0, elevation = 0.0, zoom = 1.0;
  std::string name;  ///< Colormap or codec name.

  util::Bytes serialize() const;
  /// Throws WireError on a truncated payload, trailing bytes, a kind
  /// outside ControlKind, or a kSetView render::Camera would reject (an
  /// angle that is not finite, or a zoom that is not finite and > 0).
  static ControlEvent deserialize(std::span<const std::uint8_t> data);
};

/// Framed daemon message.
struct NetMessage {
  MsgType type = MsgType::kHello;
  std::int32_t frame_index = -1;  ///< Time step of a kFrame.
  std::string codec;              ///< Codec name the payload was encoded with.
  /// Refcounted: copying a NetMessage (hub fan-out, cache, resume replay)
  /// shares the payload allocation instead of duplicating it.
  util::SharedBytes payload;

  std::size_t wire_size() const noexcept {
    // Framing overhead: type + frame index + codec-name + length prefix.
    return payload.size() + 8 + codec.size();
  }
};

/// Flat wire encoding of a NetMessage (the TCP transport's frame body).
/// Reserved to the exact output size — never reallocates mid-frame.
util::Bytes serialize_message(const NetMessage& msg);

/// Just the header fields — everything before the payload bytes, including
/// the payload-length varint. The scatter-gather send path hands this small
/// buffer plus the payload view to one writev; concatenated they equal
/// serialize_message(msg).
util::Bytes serialize_header(const NetMessage& msg);

/// Exact size of serialize_header's output.
std::size_t header_wire_size(const NetMessage& msg) noexcept;

NetMessage deserialize_message(std::span<const std::uint8_t> data);

/// Zero-copy parse of a whole frame body: the returned message's payload is
/// an aliasing view into `body` (which stays alive as long as the payload).
NetMessage deserialize_frame(util::SharedBytes body);

/// Parse a kHello (see HelloInfo::deserialize). Throws WireError on a
/// non-hello message or a malformed payload.
HelloInfo parse_hello(const NetMessage& msg);

/// Build a kHello carrying `info`.
NetMessage make_hello(const HelloInfo& info);

/// Build a kError frame whose payload is the UTF-8 `message`.
NetMessage make_error(const std::string& message);

/// The payload of a kError frame as a string.
std::string error_text(const NetMessage& msg);

// ------------------------------------------------------- parallel pieces --
//
// A parallel-compressed frame (§6: every node compresses its own rows) is
// one kFrame too. Its payload concatenates the pieces in rank order, one
//
//   u32 row0 | varint(length) | piece bytes (inner image codec)
//
// record each, under the inner codec's name prefixed with
// kPiecesCodecPrefix ("pieces+lzo", ...). A step is therefore always one
// message: hubs drop, cache and relay it without knowing about pieces.

/// Codec-name prefix marking a pieces-container frame.
inline constexpr const char* kPiecesCodecPrefix = "pieces+";

/// One record: frame rows from `row0` down, compressed on their own.
util::Bytes pack_piece(int row0, std::span<const std::uint8_t> encoded);

/// The pieces-container kFrame for `step`: `records` (pack_piece outputs;
/// empty ones add nothing) concatenated in order.
NetMessage make_pieces_frame(int step, const std::string& codec,
                             std::span<const util::SharedBytes> records);

/// True when `msg` is a kFrame with the pieces prefix.
bool is_pieces_frame(const NetMessage& msg) noexcept;

/// A pieces container split into its inner codec name and its records, in
/// order; each `encoded` is an aliasing view (no copy) of the payload.
struct PiecesFrameParts {
  struct Piece {
    int row0 = 0;
    util::SharedBytes encoded;
  };
  std::string codec;
  std::vector<Piece> pieces;
};
/// Throws WireError if `msg` is not a well-formed pieces container.
PiecesFrameParts split_pieces_frame(const NetMessage& msg);

}  // namespace tvviz::net
