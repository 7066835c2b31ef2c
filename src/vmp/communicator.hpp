// Communicator: a rank's view of a process group, in the style of MPI.
// Point-to-point operations go through per-rank mailboxes; collectives are
// binomial trees and a flat gather over point-to-point, so they exercise the
// same messaging substrate a real cluster would.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "util/bytes.hpp"
#include "util/shared_bytes.hpp"
#include "vmp/mailbox.hpp"

namespace tvviz::obs {
class Counter;
}

namespace tvviz::vmp {

class World;

class Communicator {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept { return static_cast<int>(ranks_.size()); }

  // -- point to point ------------------------------------------------------

  /// Send bytes to `dest` (rank within this communicator) with `tag`.
  /// Non-blocking in the eager-buffered sense: the mailbox shares the
  /// refcounted payload, so sending never copies the bytes.
  void send(int dest, int tag, util::SharedBytes payload) const;
  void send(int dest, int tag, util::Bytes payload) const;
  void send(int dest, int tag, std::span<const std::uint8_t> payload) const;

  /// Blocking receive. source/tag accept kAnySource / kAnyTag.
  /// The returned Message::source is translated to this communicator's ranks.
  Message recv(int source = kAnySource, int tag = kAnyTag) const;

  /// Combined exchange (deadlock-free pairwise swap, as in binary-swap).
  Message sendrecv(int peer, int tag, util::SharedBytes payload) const;

  // -- collectives (must be called by every rank of the communicator) ------

  /// Binomial-tree broadcast from `root`; returns the broadcast bytes.
  /// Interior nodes forward the very buffer they received (refcount bump).
  util::SharedBytes bcast(int root, util::SharedBytes payload) const;

  /// Gather each rank's bytes at `root` (index = rank). Non-roots get {}.
  std::vector<util::SharedBytes> gather(int root,
                                        util::SharedBytes payload) const;

  /// Element-wise sum of equal-length double vectors, returned on every
  /// rank: a binomial-tree sum toward rank 0, then a broadcast, so every
  /// rank gets the same bits.
  std::vector<double> allreduce(std::vector<double> values) const;

  /// Partition into sub-communicators by `color` (ranks with equal color end
  /// up together, ordered by current rank). Every rank must call this.
  Communicator split(int color) const;

 private:
  friend class Cluster;
  friend class World;
  Communicator(std::shared_ptr<World> world, std::uint32_t context, int rank,
               std::vector<int> ranks);

  int global_rank(int local) const { return ranks_.at(static_cast<std::size_t>(local)); }
  int local_rank_of_global(int global) const;
  /// Collective: parent rank 0 allocates `count` fresh context ids and
  /// broadcasts the first; ids are consecutive.
  std::uint32_t allocate_contexts(int count) const;

  std::shared_ptr<World> world_;
  std::uint32_t context_ = 0;
  int rank_ = -1;               ///< This rank within the communicator.
  std::vector<int> ranks_;      ///< local rank -> world rank.
  // Per-world-rank send counters (obs registry entries). Resolved once at
  // construction, bumped lock-free in send().
  obs::Counter* msgs_sent_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
};

/// Launches P rank threads, each receiving a Communicator over the full world.
/// Exceptions thrown by any rank poison the world (unblocking peers) and the
/// first one is rethrown from run().
class Cluster {
 public:
  using RankFn = std::function<void(Communicator&)>;

  /// Run `fn` on `num_ranks` virtual processors and wait for completion.
  static void run(int num_ranks, const RankFn& fn);
};

}  // namespace tvviz::vmp
