// expect-clean
//
// The two sanctioned shapes: a fully-enumerated switch (the compiler's
// -Wswitch then guards future additions), and a partial switch whose
// default does something observable (here: throws).
#include <stdexcept>

#include "net/protocol.hpp"

namespace fixture {

const char* name_of(tvviz::net::MsgType type) {
  using tvviz::net::MsgType;
  switch (type) {  // ok: every enumerator handled, no default needed
    case MsgType::kHello: return "hello";
    case MsgType::kFrame: return "frame";
    case MsgType::kControl: return "control";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kHelloAck: return "hello_ack";
    case MsgType::kAck: return "ack";
    case MsgType::kError: return "error";
  }
  return "?";
}

int expect_frame(tvviz::net::MsgType type) {
  switch (type) {
    case tvviz::net::MsgType::kFrame:
      return 1;
    default:  // ok: unexpected types are reported, not swallowed
      throw std::runtime_error("unexpected message type");
  }
}

}  // namespace fixture
