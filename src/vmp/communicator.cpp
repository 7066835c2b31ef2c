#include "vmp/communicator.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/counters.hpp"

namespace tvviz::vmp {

/// Shared state of the virtual machine: one mailbox per world rank and a
/// context-id allocator for derived communicators.
class World {
 public:
  explicit World(int size) : mailboxes_(static_cast<std::size_t>(size)) {}

  Mailbox& mailbox(int world_rank) {
    return mailboxes_.at(static_cast<std::size_t>(world_rank));
  }

  /// Reserve `count` consecutive context ids; returns the first.
  std::uint32_t allocate_contexts(std::uint32_t count) {
    return context_counter_.fetch_add(count) + 1;
  }

  void poison_all() {
    for (auto& mb : mailboxes_) mb.poison();
  }

  int size() const { return static_cast<int>(mailboxes_.size()); }

 private:
  std::vector<Mailbox> mailboxes_;
  std::atomic<std::uint32_t> context_counter_{0};
};

namespace {
// Reserved tags for collectives; user traffic must use tags >= 0, and the
// communicator context already isolates different communicators.
constexpr int kBcastTag = -1001;
constexpr int kGatherTag = -1002;
constexpr int kReduceTag = -1003;

util::Bytes pack_doubles(const std::vector<double>& v) {
  util::ByteWriter w(v.size() * 8 + 4);
  w.varint(v.size());
  for (double x : v) w.f64(x);
  return w.take();
}

std::vector<double> unpack_doubles(std::span<const std::uint8_t> b) {
  util::ByteReader r(b);
  std::vector<double> v(r.varint());
  for (auto& x : v) x = r.f64();
  return v;
}

void add_into(std::vector<double>& acc, const std::vector<double>& in) {
  if (acc.size() != in.size())
    throw std::runtime_error("vmp: reduce length mismatch");
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
}
}  // namespace

Communicator::Communicator(std::shared_ptr<World> world, std::uint32_t context,
                           int rank, std::vector<int> ranks)
    : world_(std::move(world)),
      context_(context),
      rank_(rank),
      ranks_(std::move(ranks)) {
  // Counters are keyed by *world* rank, so split communicators of the same
  // processor feed the same per-rank lane.
  const std::string prefix = "vmp.rank" + std::to_string(global_rank(rank_));
  msgs_sent_ = &obs::counter(prefix + ".messages_sent");
  bytes_sent_ = &obs::counter(prefix + ".bytes_sent");
}

int Communicator::local_rank_of_global(int global) const {
  const auto it = std::find(ranks_.begin(), ranks_.end(), global);
  if (it == ranks_.end())
    throw std::runtime_error("vmp: message from rank outside communicator");
  return static_cast<int>(it - ranks_.begin());
}

void Communicator::send(int dest, int tag, util::SharedBytes payload) const {
  static obs::Counter& msgs = obs::counter("vmp.messages_sent");
  static obs::Counter& bytes = obs::counter("vmp.bytes_sent");
  msgs.add(1);
  bytes.add(payload.size());
  msgs_sent_->add(1);
  bytes_sent_->add(payload.size());
  world_->mailbox(global_rank(dest))
      .push(Message(global_rank(rank_), tag, context_, std::move(payload)));
}

void Communicator::send(int dest, int tag, util::Bytes payload) const {
  send(dest, tag, util::SharedBytes(std::move(payload)));
}

void Communicator::send(int dest, int tag,
                        std::span<const std::uint8_t> payload) const {
  send(dest, tag, util::SharedBytes::copy_of(payload));
}

Message Communicator::recv(int source, int tag) const {
  const int global_src = source == kAnySource ? kAnySource : global_rank(source);
  Message msg = world_->mailbox(global_rank(rank_)).pop(context_, global_src, tag);
  msg.source = local_rank_of_global(msg.source);
  return msg;
}

Message Communicator::sendrecv(int peer, int tag,
                               util::SharedBytes payload) const {
  // Mailboxes buffer eagerly, so a plain send-then-recv cannot deadlock.
  send(peer, tag, std::move(payload));
  return recv(peer, tag);
}

util::SharedBytes Communicator::bcast(int root,
                                      util::SharedBytes payload) const {
  // Binomial tree rotated so that `root` maps to virtual rank 0. Every rank
  // receives from a deterministic parent (exact-source match), so two
  // back-to-back broadcasts on the same communicator cannot cross-talk.
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  int recv_step;  // the bit at which this vrank hangs off the tree
  if (vrank == 0) {
    recv_step = 1;
    while (recv_step < p) recv_step <<= 1;
  } else {
    recv_step = vrank & -vrank;
    const int vparent = vrank - recv_step;
    payload = recv((vparent + root) % p, kBcastTag).payload;
  }
  for (int step = recv_step >> 1; step >= 1; step >>= 1) {
    const int vchild = vrank + step;
    if (vchild < p) send((vchild + root) % p, kBcastTag, payload);
  }
  return payload;
}

std::vector<util::SharedBytes> Communicator::gather(
    int root, util::SharedBytes payload) const {
  // Flat gather with per-source receives: correct under repeated gathers
  // because mailbox delivery is FIFO per (source, context, tag).
  if (rank_ == root) {
    std::vector<util::SharedBytes> out(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)] = std::move(payload);
    for (int src = 0; src < size(); ++src) {
      if (src == root) continue;
      out[static_cast<std::size_t>(src)] = recv(src, kGatherTag).payload;
    }
    return out;
  }
  send(root, kGatherTag, std::move(payload));
  return {};
}

std::vector<double> Communicator::allreduce(std::vector<double> values) const {
  // Binomial-tree sum toward rank 0, which broadcasts the total: every rank
  // returns rank 0's bits.
  const int p = size();
  for (int step = 1; step < p; step <<= 1) {
    if ((rank_ & step) != 0) {
      send(rank_ - step, kReduceTag, pack_doubles(values));
      break;  // contributed; wait for the broadcast
    }
    if (rank_ + step < p) {
      const Message msg = recv(rank_ + step, kReduceTag);
      add_into(values, unpack_doubles(msg.payload));
    }
  }
  auto packed = bcast(0, rank_ == 0 ? pack_doubles(values) : util::Bytes{});
  return unpack_doubles(packed);
}

std::uint32_t Communicator::allocate_contexts(int count) const {
  util::SharedBytes packed;
  if (rank_ == 0) {
    util::ByteWriter w;
    w.u32(world_->allocate_contexts(static_cast<std::uint32_t>(count)));
    packed = w.take();
  }
  packed = bcast(0, std::move(packed));
  return util::ByteReader(packed).u32();
}

Communicator Communicator::split(int color) const {
  // Exchange colors, then derive one fresh context per distinct color so the
  // resulting sibling communicators cannot observe each other's traffic.
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(color));
  auto all = gather(0, w.take());
  util::SharedBytes table;
  if (rank_ == 0) {
    util::ByteWriter tw(all.size() * 4);
    for (const auto& b : all) tw.u32(util::ByteReader(b).u32());
    table = tw.take();
  }
  table = bcast(0, std::move(table));
  util::ByteReader r(table);
  std::vector<int> colors(static_cast<std::size_t>(size()));
  for (auto& c : colors) c = static_cast<int>(r.u32());

  // Distinct colors in order of first appearance define context offsets.
  std::vector<int> distinct;
  for (int c : colors)
    if (std::find(distinct.begin(), distinct.end(), c) == distinct.end())
      distinct.push_back(c);
  const std::uint32_t base =
      allocate_contexts(static_cast<int>(distinct.size()));
  const auto color_index = static_cast<std::uint32_t>(
      std::find(distinct.begin(), distinct.end(), color) - distinct.begin());

  std::vector<int> members;  // world ranks, in this communicator's order
  int my_pos = 0;
  for (int i = 0; i < size(); ++i) {
    if (colors[static_cast<std::size_t>(i)] != color) continue;
    if (i == rank_) my_pos = static_cast<int>(members.size());
    members.push_back(global_rank(i));
  }
  return Communicator(world_, base + color_index, my_pos, std::move(members));
}

void Cluster::run(int num_ranks, const RankFn& fn) {
  if (num_ranks <= 0) throw std::invalid_argument("vmp: num_ranks must be > 0");
  auto world = std::make_shared<World>(num_ranks);
  const std::uint32_t ctx = world->allocate_contexts(1);

  std::vector<int> identity(static_cast<std::size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) identity[static_cast<std::size_t>(i)] = i;

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks));
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      Communicator comm(world, ctx, r, identity);
      try {
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        world->poison_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& err : errors)
    if (err) std::rethrow_exception(err);
}

}  // namespace tvviz::vmp
