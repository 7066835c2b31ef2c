// Zero-copy buffer management for the frame path: SharedBytes, an
// immutable, reference-counted byte buffer with cheap aliasing views. A
// compressed frame is produced once (by a codec, a ByteWriter or a socket
// read) as a plain vector, adopted without a copy, and then every hop of
// renderer -> hub -> N viewers shares the same allocation; "copying" a
// SharedBytes bumps a refcount. view() carves out a sub-range (e.g. the
// payload slice of a received wire frame) that keeps the whole backing
// buffer alive, and the last handle to drop frees it.
//
// Ownership rules (see DESIGN.md §11): whoever fills a buffer owns it
// mutably exactly until it is wrapped in a SharedBytes; from then on the
// bytes are immutable and ownership is collective. Nobody frees by hand.
//
// Counters: util.shared_bytes.{copies,copy_bytes} (every deep copy is
// counted, so a "zero-copy path" is checkable by assertion).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace tvviz::util {

class SharedBytes {
 public:
  SharedBytes() = default;

  /// Adopt a byte vector without copying — the writer -> wire hop.
  SharedBytes(Bytes&& bytes);  // NOLINT(google-explicit-constructor)

  /// Deep copy of a borrowed vector (counted; prefer std::move).
  SharedBytes(const Bytes& bytes);  // NOLINT(google-explicit-constructor)

  SharedBytes(std::initializer_list<std::uint8_t> init);

  /// Deep copy of arbitrary borrowed bytes (counted in
  /// util.shared_bytes.copy_bytes).
  static SharedBytes copy_of(std::span<const std::uint8_t> data);

  /// Aliasing sub-view [offset, offset + len): shares storage, no copy.
  /// Throws std::out_of_range past the end.
  SharedBytes view(std::size_t offset, std::size_t len) const;

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::span<const std::uint8_t> span() const noexcept {
    return {data_, size_};
  }
  // NOLINTNEXTLINE(google-explicit-constructor): SharedBytes stands in for
  // span<const uint8_t> at every parse/decode call site.
  operator std::span<const std::uint8_t>() const noexcept { return span(); }
  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + size_; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Handles (messages, cache entries, views) sharing this storage.
  long use_count() const noexcept { return storage_.use_count(); }

  /// True when both handles alias one underlying allocation.
  bool shares_storage_with(const SharedBytes& other) const noexcept {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  /// Mutable copy-out (deep copy, counted).
  Bytes to_bytes() const;

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) noexcept {
    return a.size_ == b.size_ &&
           (a.data_ == b.data_ || std::equal(a.begin(), a.end(), b.begin()));
  }
  friend bool operator==(const SharedBytes& a, const Bytes& b) noexcept {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Bytes& a, const SharedBytes& b) noexcept {
    return b == a;
  }

 private:
  /// The single owner of the allocation, freed with the last handle.
  std::shared_ptr<const Bytes> storage_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace tvviz::util
