// expect-clean
//
// Both sanctioned forms of keeping an alias: a class that stores the
// SharedBytes handle next to the raw view, and a lambda that captures the
// handle by value alongside the pointer. The handle keeps the storage
// alive as long as the alias.
#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/shared_bytes.hpp"

namespace fixture {

class AnchoredView {
 public:
  void adopt(const tvviz::util::SharedBytes& frame) {
    owner_ = frame;          // handle travels with the alias
    bytes_ = frame.data();   // ok: class keeps a SharedBytes member
  }

 private:
  tvviz::util::SharedBytes owner_;
  const std::uint8_t* bytes_ = nullptr;
};

std::function<const std::uint8_t*()> defer_read(
    const tvviz::util::SharedBytes& frame) {
  return [frame, p = frame.data()] {  // ok: handle captured by value
    return frame.empty() ? nullptr : p;
  };
}

}  // namespace fixture
