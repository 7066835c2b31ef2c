#include "util/shared_bytes.hpp"

#include <stdexcept>
#include <utility>

#include "obs/counters.hpp"

namespace tvviz::util {

namespace {

obs::Counter& copies_ctr() {
  static obs::Counter& c = obs::counter("util.shared_bytes.copies");
  return c;
}
obs::Counter& copy_bytes_ctr() {
  static obs::Counter& c = obs::counter("util.shared_bytes.copy_bytes");
  return c;
}

void count_copy(std::size_t n) {
  copies_ctr().add(1);
  copy_bytes_ctr().add(n);
}

}  // namespace

// ----------------------------------------------------------- SharedBytes ----

SharedBytes::SharedBytes(Bytes&& bytes) {
  if (bytes.empty()) return;
  auto storage = std::make_shared<const Bytes>(std::move(bytes));
  data_ = storage->data();
  size_ = storage->size();
  storage_ = std::move(storage);
}

SharedBytes::SharedBytes(const Bytes& bytes)
    : SharedBytes(Bytes(bytes)) {
  if (!bytes.empty()) count_copy(bytes.size());
}

SharedBytes::SharedBytes(std::initializer_list<std::uint8_t> init) {
  // Assigned rather than delegated: GCC 12's -O3 -Wfree-nonheap-object
  // misreads the delegating form.
  *this = SharedBytes(Bytes(init));
}

SharedBytes SharedBytes::copy_of(std::span<const std::uint8_t> data) {
  if (data.empty()) return {};
  count_copy(data.size());
  return SharedBytes(Bytes(data.begin(), data.end()));
}

SharedBytes SharedBytes::view(std::size_t offset, std::size_t len) const {
  if (offset + len > size_ || offset + len < offset)
    throw std::out_of_range("SharedBytes::view past end of buffer");
  SharedBytes out;
  if (len == 0) return out;
  out.storage_ = storage_;
  out.data_ = data_ + offset;
  out.size_ = len;
  return out;
}

Bytes SharedBytes::to_bytes() const {
  if (size_ != 0) count_copy(size_);
  return Bytes(begin(), end());
}

}  // namespace tvviz::util
