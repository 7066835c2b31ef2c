#include "net/link.hpp"

namespace tvviz::net {

LinkModel wan_nasa_ucd() {
  // ~120 miles over year-2000 research Internet: tens of ms RTT, about a
  // megabyte per second of sustained TCP throughput.
  return LinkModel{"wan-nasa-ucd", 0.050, 1.0e6};
}

LinkModel wan_japan_ucd() {
  // Trans-Pacific: ~3x the latency, well under half the throughput.
  return LinkModel{"wan-japan-ucd", 0.150, 0.4e6};
}

}  // namespace tvviz::net
