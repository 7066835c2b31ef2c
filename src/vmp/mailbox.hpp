// Per-rank mailbox: an unbounded MPSC queue with blocking receive matched on
// (context, tag, source). One mailbox per virtual processor node.
#pragma once

#include <deque>

#include "util/mutex.hpp"
#include "vmp/message.hpp"

namespace tvviz::vmp {

class Mailbox {
 public:
  /// Enqueue a message (called by any sender thread).
  void push(Message msg) TVVIZ_EXCLUDES(mutex_);

  /// Block until a message matching (context, tag, source) is available and
  /// remove it. tag/source may be kAnyTag/kAnySource.
  /// Throws std::runtime_error if the world was poisoned (a peer died).
  Message pop(std::uint32_t context, int source, int tag)
      TVVIZ_EXCLUDES(mutex_);

  /// Wake all blocked receivers with an error (peer rank failed).
  void poison() TVVIZ_EXCLUDES(mutex_);

 private:
  static bool matches(const Message& m, std::uint32_t context, int source,
                      int tag) {
    return m.context == context && (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<Message> queue_ TVVIZ_GUARDED_BY(mutex_);
  bool poisoned_ TVVIZ_GUARDED_BY(mutex_) = false;
};

}  // namespace tvviz::vmp
