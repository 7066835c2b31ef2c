#include "vmp/mailbox.hpp"

#include <stdexcept>

#include "obs/counters.hpp"

namespace tvviz::vmp {

void Mailbox::push(Message msg) {
  static obs::Gauge& depth = obs::gauge("vmp.mailbox.depth");
  {
    util::LockGuard lock(mutex_);
    queue_.push_back(std::move(msg));
    depth.update_max(static_cast<std::int64_t>(queue_.size()));
  }
  cv_.notify_all();
}

Message Mailbox::pop(std::uint32_t context, int source, int tag) {
  util::LockGuard lock(mutex_);
  for (;;) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (matches(*it, context, source, tag)) {
        Message msg = std::move(*it);
        queue_.erase(it);
        return msg;
      }
    }
    if (poisoned_)
      throw std::runtime_error("vmp: world poisoned while waiting for message");
    cv_.wait(mutex_);
  }
}

void Mailbox::poison() {
  {
    util::LockGuard lock(mutex_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

}  // namespace tvviz::vmp
