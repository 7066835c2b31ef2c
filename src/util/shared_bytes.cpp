#include "util/shared_bytes.hpp"

#include <bit>
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
obs::Counter& pool_hits_ctr() {
  static obs::Counter& c = obs::counter("util.pool.hits");
  return c;
}
obs::Counter& pool_misses_ctr() {
  static obs::Counter& c = obs::counter("util.pool.misses");
  return c;
}
obs::Gauge& pool_bytes_gauge() {
  static obs::Gauge& g = obs::gauge("util.pool.bytes_pooled");
  return g;
}
obs::Gauge& pool_outstanding_gauge() {
  static obs::Gauge& g = obs::gauge("util.pool.outstanding");
  return g;
}

void count_copy(std::size_t n) {
  copies_ctr().add(1);
  copy_bytes_ctr().add(n);
}

}  // namespace

// ----------------------------------------------------------- SharedBytes ----

/// The single owner of the actual allocation. `pool` is set for pooled
/// storage: the destructor of the last reference files the vector back
/// instead of freeing it.
struct SharedBytes::Storage {
  Bytes buf;
  BufferPool* pool = nullptr;

  Storage(Bytes&& b, BufferPool* p) : buf(std::move(b)), pool(p) {}
  ~Storage() {
    if (pool != nullptr) pool->release(std::move(buf));
  }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;
};

SharedBytes::SharedBytes(Bytes&& bytes) {
  if (bytes.empty()) return;
  auto storage = std::make_shared<const Storage>(std::move(bytes), nullptr);
  data_ = storage->buf.data();
  size_ = storage->buf.size();
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

SharedBytes SharedBytes::adopt_pooled(Bytes&& bytes, BufferPool& pool) {
  if (bytes.empty()) {
    pool.release(std::move(bytes));
    return {};
  }
  SharedBytes out;
  auto storage = std::make_shared<const Storage>(std::move(bytes), &pool);
  out.data_ = storage->buf.data();
  out.size_ = storage->buf.size();
  out.storage_ = std::move(storage);
  return out;
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

// ------------------------------------------------------------ BufferPool ----

BufferPool::BufferPool() : BufferPool(Config{}) {}

BufferPool::BufferPool(Config config) : config_(config) {
  if (config_.min_bucket_bytes == 0) config_.min_bucket_bytes = 1;
  // One bucket per power of two from min_bucket_bytes to max_buffer_bytes.
  std::size_t buckets = 1;
  for (std::size_t b = config_.min_bucket_bytes; b < config_.max_buffer_bytes;
       b <<= 1)
    ++buckets;
  buckets_.resize(buckets);
}

BufferPool& BufferPool::global() {
  // Leaked on purpose: frames wrapped in pooled SharedBytes may outlive
  // every other static and must still have a pool to return to.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

std::size_t BufferPool::bucket_of(std::size_t capacity) const noexcept {
  std::size_t idx = 0;
  for (std::size_t b = config_.min_bucket_bytes; b < capacity; b <<= 1) ++idx;
  return idx;
}

Bytes BufferPool::acquire(std::size_t size) {
  pool_outstanding_gauge().set(outstanding_.fetch_add(1) + 1);
  if (size > config_.max_buffer_bytes) {
    pool_misses_ctr().add(1);
    return Bytes(size);
  }
  const std::size_t idx = bucket_of(size);
  {
    LockGuard lock(mutex_);
    auto& bucket = buckets_[idx];
    if (!bucket.empty()) {
      Bytes buf = std::move(bucket.back());
      bucket.pop_back();
      pooled_bytes_ -= buf.capacity();
      pool_bytes_gauge().set(static_cast<std::int64_t>(pooled_bytes_));
      pool_hits_ctr().add(1);
      buf.resize(size);
      return buf;
    }
  }
  pool_misses_ctr().add(1);
  // Reserve the full bucket so every buffer in a bucket is interchangeable
  // (a reused buffer can serve any request that maps to the same bucket).
  std::size_t bucket_bytes = config_.min_bucket_bytes;
  while (bucket_bytes < size) bucket_bytes <<= 1;
  Bytes buf;
  buf.reserve(bucket_bytes);
  buf.resize(size);
  return buf;
}

void BufferPool::release(Bytes&& buffer) {
  pool_outstanding_gauge().set(outstanding_.fetch_sub(1) - 1);
  if (buffer.capacity() == 0 || buffer.capacity() > config_.max_buffer_bytes)
    return;  // too small or too large to be worth keeping
  const std::size_t idx = bucket_of(buffer.capacity());
  LockGuard lock(mutex_);
  auto& bucket = buckets_[idx];
  if (bucket.size() >= config_.max_buffers_per_bucket) return;  // full: free
  pooled_bytes_ += buffer.capacity();
  pool_bytes_gauge().set(static_cast<std::int64_t>(pooled_bytes_));
  bucket.push_back(std::move(buffer));
}

std::size_t BufferPool::pooled_bytes() const {
  LockGuard lock(mutex_);
  return pooled_bytes_;
}

std::size_t BufferPool::pooled_buffers() const {
  LockGuard lock(mutex_);
  std::size_t n = 0;
  for (const auto& bucket : buckets_) n += bucket.size();
  return n;
}

}  // namespace tvviz::util
