// expect-reject: wire-switch-default
//
// A switch over net::MsgType that handles a subset of the enumerators with
// no default: when the protocol adds a message type, this code falls
// through without a trace. Either enumerate everything or add a default
// that throws/logs/counts.
#include "net/protocol.hpp"

namespace fixture {

bool is_frame_bearing(tvviz::net::MsgType type) {
  switch (type) {  // flagged: kControl, kShutdown, ... unhandled, no default
    case tvviz::net::MsgType::kFrame:
      return true;
    case tvviz::net::MsgType::kHello:
      return false;
  }
  return false;
}

}  // namespace fixture
