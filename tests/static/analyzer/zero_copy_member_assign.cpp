// expect-reject: zero-copy-escape
//
// A raw pointer obtained from SharedBytes::data() is stored into a member
// of a class that keeps no SharedBytes handle: the bytes can be freed
// while `bytes_` still points at them.
#include <cstddef>
#include <cstdint>

#include "util/shared_bytes.hpp"

namespace fixture {

class DanglingView {
 public:
  void adopt(const tvviz::util::SharedBytes& frame) {
    bytes_ = frame.data();  // flagged: no handle stored alongside
    size_ = frame.size();
  }

 private:
  const std::uint8_t* bytes_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace fixture
