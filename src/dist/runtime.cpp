#include "dist/runtime.hpp"

namespace gems::dist {

int RankCtx::size() const noexcept {
  return static_cast<int>(cluster_->size());
}

void RankCtx::send(int to, int tag, std::span<const std::uint8_t> payload) {
  cluster_->deliver(rank_, to, tag, payload);
}

Message RankCtx::recv() { return cluster_->take(rank_); }

void RankCtx::barrier() { cluster_->barrier_wait(); }

namespace {

std::uint64_t read_sum(const Message& m) {
  ByteReader r = payload_reader(m.payload);
  Result<std::uint64_t> v = r.u64();
  check_payload(v.status(), "allreduce value");
  check_payload(r.expect_end("allreduce value"), "allreduce value");
  return v.value();
}

}  // namespace

std::uint64_t Comm::allreduce_sum(std::uint64_t value) {
  constexpr int kTagReduce = -101;
  constexpr int kTagResult = -102;
  std::vector<std::uint8_t> out;
  if (rank() == 0) {
    std::uint64_t sum = value;
    for (int i = 1; i < size(); ++i) {
      Message m = recv();
      GEMS_CHECK(m.tag == kTagReduce);
      sum += read_sum(m);
    }
    ByteWriter(out).u64(sum);
    for (int i = 1; i < size(); ++i) send(i, kTagResult, out);
    return sum;
  }
  ByteWriter(out).u64(value);
  send(0, kTagReduce, out);
  Message m = recv();
  GEMS_CHECK(m.tag == kTagResult);
  return read_sum(m);
}

SimCluster::SimCluster(std::size_t num_ranks) : num_ranks_(num_ranks) {
  GEMS_CHECK(num_ranks >= 1);
  mailboxes_.reserve(num_ranks);
  for (std::size_t i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  stats_.resize(num_ranks);
}

void SimCluster::run(const std::function<void(RankCtx&)>& body) {
  for (auto& s : stats_) s = RankCommStats{};
  for (auto& mb : mailboxes_) {
    sync::MutexLock lock(mb->mutex);
    mb->queue.clear();
  }
  std::vector<std::thread> threads;
  threads.reserve(num_ranks_);
  for (std::size_t r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([this, r, &body] {
      RankCtx ctx(this, static_cast<int>(r));
      body(ctx);
    });
  }
  for (auto& t : threads) t.join();
}

void SimCluster::deliver(int from, int to, int tag,
                         std::span<const std::uint8_t> payload) {
  GEMS_DCHECK(to >= 0 && static_cast<std::size_t>(to) < num_ranks_);
  {
    Mailbox& mb = *mailboxes_[to];
    sync::MutexLock lock(mb.mutex);
    Message m;
    m.from = from;
    m.tag = tag;
    m.payload.assign(payload.begin(), payload.end());
    mb.queue.push_back(std::move(m));
  }
  mailboxes_[to]->cv.notify_one();
  // Self-sends are delivered but not counted as network traffic.
  if (from != to) {
    // stats_ is written only by the sending rank's thread.
    stats_[from].messages += 1;
    stats_[from].bytes += payload.size();
  }
}

Message SimCluster::take(int rank) {
  Mailbox& mb = *mailboxes_[rank];
  sync::MutexLock lock(mb.mutex);
  while (mb.queue.empty()) mb.cv.wait(mb.mutex);
  Message m = std::move(mb.queue.front());
  mb.queue.pop_front();
  return m;
}

void SimCluster::barrier_wait() {
  sync::MutexLock lock(barrier_mutex_);
  const std::uint64_t generation = barrier_generation_;
  if (++barrier_count_ == num_ranks_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  while (barrier_generation_ == generation) barrier_cv_.wait(barrier_mutex_);
}

std::uint64_t SimCluster::total_messages() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.messages;
  return n;
}

std::uint64_t SimCluster::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.bytes;
  return n;
}

}  // namespace gems::dist
