#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/race/annotate.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/timeline.hpp"
#include "sim/fault.hpp"
#include "sim/mpi.hpp"
#include "sim/shard.hpp"
#include "sim/tool.hpp"
#include "support/logging.hpp"

namespace cham::sim {

namespace prof = obs::prof;

Engine::Engine(EngineOptions opts) : opts_(opts) {
  CHAM_CHECK_MSG(opts_.nprocs >= 1, "need at least one rank");
  const auto p = static_cast<std::size_t>(opts_.nprocs);
  vtime_.assign(p, 0.0);
  wait_.assign(p, 0.0);
  blocked_.assign(p, BlockedState{});
  unexpected_.resize(kNumComms * p);
  pending_.resize(kNumComms * p);
  requests_.resize(p);
  inbox_.resize(p);
  coll_seq_.assign(kNumComms * p, 0);
  mbox_m_ = std::make_unique<std::mutex[]>(kNumComms * p);
  inbox_m_ = std::make_unique<std::mutex[]>(p);
  failed_ = std::make_unique<std::atomic<bool>[]>(p);
  for (std::size_t i = 0; i < p; ++i)
    failed_[i].store(false, std::memory_order_relaxed);
  call_count_.assign(p, 0);
  marker_count_.assign(p, 0);
  toolop_count_.assign(p, 0);
}

Engine::~Engine() = default;

double Engine::vtime(Rank r) const {
  return vtime_.at(static_cast<std::size_t>(r));
}

double Engine::max_vtime() const {
  return *std::max_element(vtime_.begin(), vtime_.end());
}

double Engine::vtime_sum() const {
  double total = 0;
  for (double t : vtime_) total += t;
  return total;
}

double Engine::wait_seconds(Rank r) const {
  return wait_.at(static_cast<std::size_t>(r));
}

Pmpi& Engine::pmpi(Rank r) { return pmpis_.at(static_cast<std::size_t>(r)); }

void Engine::run(const std::function<void(Mpi&)>& rank_main) {
  CHAM_CHECK_MSG(!ran_, "Engine::run may be called once");
  ran_ = true;
  // More shards than ranks would only add idle workers; clamp. One shard
  // runs every fiber on the calling thread.
  scheduler_ = std::make_unique<ShardedScheduler>(
      std::min(std::max(opts_.threads, 1), opts_.nprocs));
  if (opts_.sched_seed != 0) scheduler_->set_seed(opts_.sched_seed);
  if (obs::Timeline* tl = obs::timeline()) {
    // Shard worker tracks (s >= 1) are named by ShardedScheduler::run()
    // itself, so every scheduler consumer gets readable Perfetto rows.
    tl->set_track_name(obs::Timeline::kSchedulerTid, "scheduler");
    for (Rank r = 0; r < opts_.nprocs; ++r)
      tl->set_track_name(obs::Timeline::rank_tid(r),
                         "rank " + std::to_string(r));
  }
  mpis_.reserve(static_cast<std::size_t>(opts_.nprocs));
  pmpis_.reserve(static_cast<std::size_t>(opts_.nprocs));
  for (Rank r = 0; r < opts_.nprocs; ++r) {
    mpis_.emplace_back(Mpi(*this, r));
    pmpis_.emplace_back(Pmpi(*this, r));
  }
  for (Rank r = 0; r < opts_.nprocs; ++r) {
    scheduler_->spawn(
        [this, r, &rank_main] {
          Mpi& mpi = mpis_[static_cast<std::size_t>(r)];
          mpi.init();
          rank_main(mpi);
          mpi.finalize();
        },
        opts_.stack_bytes);
  }
  scheduler_->set_stall_handler([this] {
    if (failed_count_ > 0 && fault_progress_step()) return true;
    if (approximate_ && approximate_progress_step()) return true;
    // Last chance for analysis tools to inspect the stalled configuration
    // (wait-for graph, queue contents) before the scheduler unwinds all
    // fibers and throws DeadlockError.
    if (tool_ != nullptr) tool_->on_stall(*this);
    return false;
  });
  scheduler_->set_block_describer(
      [this](int id) { return describe_block(static_cast<Rank>(id)); });
  scheduler_->run();
}

std::string Engine::describe_block(Rank r) {
  const BlockedState& blocked = blocked_[static_cast<std::size_t>(r)];
  std::ostringstream os;
  const auto any_or = [&os](int value, int any) -> std::ostream& {
    if (value == any) return os << "any";
    return os << value;
  };
  switch (blocked.kind) {
    case BlockedState::Kind::kNone:
      break;
    case BlockedState::Kind::kRecv:
      os << "comm=" << blocked.comm << " src=";
      any_or(blocked.src_match, kAnySource) << " tag=";
      any_or(blocked.tag_match, kAnyTag);
      break;
    case BlockedState::Kind::kCollective: {
      os << "comm=" << blocked.comm << " slot=" << blocked.slot;
      const prof::TimedLockGuard map_lock(collmap_m_, prof::LockClass::kCollMap);
      const auto it = coll_sites_.find({blocked.comm, blocked.slot});
      if (it != coll_sites_.end()) {
        const prof::TimedLockGuard site_lock(it->second.m,
                                             prof::LockClass::kCollSite);
        os << " (" << it->second.arrived << '/' << opts_.nprocs
           << " arrived)";
      }
      break;
    }
  }
  return os.str();
}

// --------------------------------------------------------------------------
// Point-to-point
// --------------------------------------------------------------------------

Engine::RequestState& Engine::request_state(Rank self, Request req) {
  auto& slots = requests_[static_cast<std::size_t>(self)];
  CHAM_CHECK(req >= 0 && req < static_cast<int>(slots.size()));
  return slots[static_cast<std::size_t>(req)];
}

Request Engine::alloc_request(Rank self) {
  auto& slots = requests_[static_cast<std::size_t>(self)];
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].active) {
      slots[i] = RequestState{};
      slots[i].active = true;
      return static_cast<Request>(i);
    }
  }
  slots.emplace_back();
  slots.back().active = true;
  return static_cast<Request>(slots.size() - 1);
}

void Engine::deliver(Rank dest, Request req, Message&& msg) {
  // The sender (or the scheduler's progress step) must not touch dest's
  // request slots: dest could be mid-alloc_request on another communicator,
  // and requests_[dest] reallocating under a concurrent writer is exactly
  // the race the sharded engine would hit. Park the completion in dest's
  // inbox instead; dest drains it from pmpi_wait.
  {
    const prof::TimedLockGuard inbox_lock(inbox_m_[static_cast<std::size_t>(dest)], prof::LockClass::kInbox);
    race::ScopedSync lock("engine.inbox", static_cast<std::uint64_t>(dest));
    RACE_WRITE("engine.inbox", static_cast<std::uint64_t>(dest), 0);
    inbox_[static_cast<std::size_t>(dest)].emplace_back(req, std::move(msg));
  }
  // Wake after releasing the inbox lock: unblock takes dest's shard mutex,
  // and the message is already published, so the wake cannot be lost.
  scheduler_->unblock(dest);
}

void Engine::drain_inbox(Rank self) {
  const auto s = static_cast<std::size_t>(self);
  const prof::TimedLockGuard inbox_lock(inbox_m_[s], prof::LockClass::kInbox);
  race::ScopedSync lock("engine.inbox", static_cast<std::uint64_t>(self));
  RACE_WRITE("engine.inbox", static_cast<std::uint64_t>(self), 0);
  auto& box = inbox_[s];
  for (auto& [req, msg] : box) {
    RACE_WRITE("engine.requests", static_cast<std::uint64_t>(self), 0);
    RequestState& state = request_state(self, req);
    state.msg = std::move(msg);
    state.complete = true;
  }
  box.clear();
}

CommResult Engine::pmpi_send(Rank self, int comm, Rank dest, int tag,
                             std::size_t bytes,
                             std::vector<std::uint8_t> payload) {
  CHAM_CHECK_MSG(dest >= 0 && dest < opts_.nprocs, "send to invalid rank");
  if (injector_ != nullptr && comm == kCommTool) tool_op_fault_point(self);
  auto& t = vtime_[static_cast<std::size_t>(self)];
  RACE_WRITE("engine.vtime", static_cast<std::uint64_t>(self), 0);
  t += kNetModel.send_overhead;
  RACE_ATOMIC("engine.failed", static_cast<std::uint64_t>(dest), 0);
  if (injector_ != nullptr &&
      failed_[static_cast<std::size_t>(dest)].load(std::memory_order_acquire)) {
    // Detected only after exhausting the full acknowledgement-retry budget.
    t += kFaultTolerance.recv_fail_delay();
    RACE_ATOMIC("engine.counter.messages_lost", 0, 0);
    messages_lost_.fetch_add(1, std::memory_order_relaxed);
    return CommResult::kPeerFailed;
  }
  Message msg;
  msg.src = self;
  msg.tag = tag;
  msg.bytes = std::max(bytes, payload.size());
  msg.payload = std::move(payload);
  if (injector_ != nullptr) {
    int attempt = 0;
    while (injector_->drop_message(self, dest)) {
      // Each dropped attempt costs a full transfer plus one timeout window.
      RACE_ATOMIC("engine.counter.retransmissions", 0, 0);
      retransmissions_.fetch_add(1, std::memory_order_relaxed);
      if (obs::Timeline* tl = obs::timeline())
        tl->instant(obs::Timeline::rank_tid(self), "fault.drop", "fault",
                    {obs::arg_int("dest", dest)});
      t += kNetModel.p2p_transfer(msg.bytes) + kFaultTolerance.recv_timeout;
      if (++attempt > kFaultTolerance.retries) {
        messages_lost_.fetch_add(1, std::memory_order_relaxed);
        return CommResult::kLost;
      }
    }
  }
  msg.arrive_vtime = t + kNetModel.p2p_transfer(msg.bytes);
  RACE_ATOMIC("engine.counter.messages_sent", 0, 0);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(msg.bytes, std::memory_order_relaxed);

  // Mailbox critical section: the posted-receive and unexpected queues of
  // (comm, dest) are written by every sender and by dest itself.
  const prof::TimedLockGuard mbox_lock(mbox_m_[box(comm, dest)], prof::LockClass::kMailbox);
  race::ScopedSync mbox("engine.mailbox", static_cast<std::uint64_t>(comm),
                        static_cast<std::uint64_t>(dest));
  RACE_WRITE("engine.queues", static_cast<std::uint64_t>(comm),
             static_cast<std::uint64_t>(dest));
  auto& posted = pending_[box(comm, dest)];
  for (auto it = posted.begin(); it != posted.end(); ++it) {
    if (matches(*it, msg)) {
      const Request req = it->req;
      posted.erase(it);
      deliver(dest, req, std::move(msg));
      return CommResult::kOk;
    }
  }
  unexpected_[box(comm, dest)].emplace_back(std::move(msg));
  return CommResult::kOk;
}

Request Engine::pmpi_isend(Rank self, int comm, Rank dest, int tag,
                           std::size_t bytes,
                           std::vector<std::uint8_t> payload) {
  // Eager/buffered semantics: the transfer is initiated immediately and the
  // request completes at once (the paper's workloads never rely on
  // rendezvous back-pressure).
  pmpi_send(self, comm, dest, tag, bytes, std::move(payload));
  RACE_WRITE("engine.requests", static_cast<std::uint64_t>(self), 0);
  const Request req = alloc_request(self);
  RequestState& state = request_state(self, req);
  state.is_recv = false;
  state.complete = true;
  state.comm = comm;
  return req;
}

Request Engine::pmpi_irecv(Rank self, int comm, Rank src, int tag,
                           std::size_t declared_bytes) {
  CHAM_CHECK_MSG(src == kAnySource || (src >= 0 && src < opts_.nprocs),
                 "recv from invalid rank");
  if (injector_ != nullptr && comm == kCommTool) tool_op_fault_point(self);
  RACE_WRITE("engine.requests", static_cast<std::uint64_t>(self), 0);
  const Request req = alloc_request(self);
  RequestState& state = request_state(self, req);
  state.is_recv = true;
  state.comm = comm;
  state.declared_bytes = declared_bytes;
  state.src_match = src;
  state.tag_match = tag;

  const prof::TimedLockGuard mbox_lock(mbox_m_[box(comm, self)], prof::LockClass::kMailbox);
  race::ScopedSync mbox("engine.mailbox", static_cast<std::uint64_t>(comm),
                        static_cast<std::uint64_t>(self));
  RACE_WRITE("engine.queues", static_cast<std::uint64_t>(comm),
             static_cast<std::uint64_t>(self));
  auto& backlog = unexpected_[box(comm, self)];
  PendingRecv want{src, tag, req};
  for (auto it = backlog.begin(); it != backlog.end(); ++it) {
    if (matches(want, *it)) {
      Message msg = std::move(*it);
      backlog.erase(it);
      state.msg = std::move(msg);
      state.complete = true;
      return req;
    }
  }
  pending_[box(comm, self)].emplace_back(want);
  return req;
}

Message Engine::pmpi_wait(Rank self, Request req, RecvStatus* status) {
  drain_inbox(self);
  RequestState& state = request_state(self, req);
  CHAM_CHECK_MSG(state.active, "wait on inactive request");
  if (!state.complete) {
    auto& blocked = blocked_[static_cast<std::size_t>(self)];
    blocked.kind = BlockedState::Kind::kRecv;
    blocked.comm = state.comm;
    blocked.src_match = state.src_match;
    blocked.tag_match = state.tag_match;
    while (!state.complete) {
      scheduler_->block("MPI_Wait");
      drain_inbox(self);
    }
    blocked = BlockedState{};
  }
  RACE_WRITE("engine.requests", static_cast<std::uint64_t>(self), 0);
  Message msg = std::move(state.msg);
  RACE_WRITE("engine.vtime", static_cast<std::uint64_t>(self), 0);
  if (state.is_recv) {
    complete_recv(self, msg.arrive_vtime);
    if (status != nullptr) {
      status->source = msg.src;
      status->tag = msg.tag;
      status->bytes = msg.bytes;
      status->peer_failed = msg.peer_failed;
    }
  }
  state.active = false;
  return msg;
}

Message Engine::pmpi_recv(Rank self, int comm, Rank src, int tag,
                          RecvStatus* status) {
  const Request req = pmpi_irecv(self, comm, src, tag, 0);
  return pmpi_wait(self, req, status);
}

bool Engine::pmpi_try_recv(Rank self, int comm, Rank src, int tag,
                           Message* out) {
  const prof::TimedLockGuard mbox_lock(mbox_m_[box(comm, self)], prof::LockClass::kMailbox);
  race::ScopedSync mbox("engine.mailbox", static_cast<std::uint64_t>(comm),
                        static_cast<std::uint64_t>(self));
  RACE_WRITE("engine.queues", static_cast<std::uint64_t>(comm),
             static_cast<std::uint64_t>(self));
  auto& backlog = unexpected_[box(comm, self)];
  const PendingRecv want{src, tag, kNullRequest};
  for (auto it = backlog.begin(); it != backlog.end(); ++it) {
    if (!matches(want, *it)) continue;
    Message msg = std::move(*it);
    backlog.erase(it);
    complete_recv(self, msg.arrive_vtime);
    if (out != nullptr) *out = std::move(msg);
    return true;
  }
  return false;
}

void Engine::complete_recv(Rank self, double arrive_vtime) {
  const auto s = static_cast<std::size_t>(self);
  double& t = vtime_[s];
  if (arrive_vtime > t) wait_[s] += arrive_vtime - t;
  t = std::max(t, arrive_vtime) + kNetModel.recv_overhead;
}

std::vector<Engine::PendingRecv> Engine::take_posted(
    int comm, Rank r, const std::function<bool(const PendingRecv&)>& take) {
  std::vector<PendingRecv> taken;
  const prof::TimedLockGuard mbox_lock(mbox_m_[box(comm, r)],
                                       prof::LockClass::kMailbox);
  race::ScopedSync mbox("engine.mailbox", static_cast<std::uint64_t>(comm),
                        static_cast<std::uint64_t>(r));
  RACE_WRITE("engine.queues", static_cast<std::uint64_t>(comm),
             static_cast<std::uint64_t>(r));
  auto& posted = pending_[box(comm, r)];
  for (auto it = posted.begin(); it != posted.end();) {
    if (take(*it)) {
      taken.push_back(*it);
      it = posted.erase(it);
    } else {
      ++it;
    }
  }
  return taken;
}

// --------------------------------------------------------------------------
// Collectives
// --------------------------------------------------------------------------

void Engine::collective_arrive(
    Rank self, int comm, Op op,
    const std::function<void(CollSite&)>& deposit,
    const std::function<void(CollSite&)>& extract) {
  auto& seq = coll_seq_[box(comm, self)];
  const auto key = std::make_pair(comm, seq);
  ++seq;

  const auto ucomm = static_cast<std::uint64_t>(comm);
  const std::uint64_t slot = key.second;
  CollSite* site = nullptr;
  {
    // The site table itself (insertion/erasure) is one lock per comm; the
    // per-site state a finer lock per (comm, slot). Map nodes are stable,
    // so the pointer stays valid until the last extractor erases it below.
    const prof::TimedLockGuard map_lock(collmap_m_, prof::LockClass::kCollMap);
    race::ScopedSync maplock("engine.collmap", ucomm, 0);
    RACE_WRITE("engine.collmap", ucomm, 0);
    auto [it, inserted] = coll_sites_.try_emplace(key);
    site = &it->second;
    if (inserted) {
      site->op = op;
      site->byte_contribs.resize(static_cast<std::size_t>(opts_.nprocs));
      site->u64_contribs.resize(static_cast<std::size_t>(opts_.nprocs));
    }
  }
  const double own_arrive = vtime_[static_cast<std::size_t>(self)];
  // Every arrival waits for completion except the last one, and a rank
  // that arrives late at a site approximate progress already forced.
  bool waits = true;
  {
    const prof::TimedLockGuard site_lock(site->m, prof::LockClass::kCollSite);
    race::ScopedSync sitelock("engine.collsite", ucomm, slot);
    RACE_WRITE("engine.collsite", ucomm, slot);
    CHAM_CHECK_MSG(site->op == op,
                   "collective mismatch: ranks disagree on the operation");
    RACE_ATOMIC("engine.collsite.done", ucomm, slot);
    if (site->done.load(std::memory_order_relaxed)) {
      // Approximate replay force-completed this collective without this
      // rank (approximate_progress_step). The late rank takes the forced
      // result and changes nothing else in the site: no deposit, no
      // max_arrive (the forced waiters read it for their wait time), no
      // second completion. Forced sites are never erased, so it finds the
      // same site whether the forced waiters have left it or not.
      waits = false;
    } else {
      deposit(*site);
      site->max_arrive = std::max(site->max_arrive, own_arrive);
      ++site->arrived;
      // Dead ranks are routed around: the rendezvous completes once every
      // *live* rank arrived (a crashed rank is never inside a collective,
      // so all arrivals are live). With no failures that is all nprocs
      // ranks.
      if (site->arrived >= live_expected()) {
        waits = false;
        finish_site(comm, slot, *site, modelled_completion(*site));
        // Application-level statistic: tool-comm collectives (clustering
        // votes, the finalize synchronization) are bookkeeping, not
        // workload traffic.
        if (comm != kCommTool) {
          RACE_ATOMIC("engine.counter.collectives", 0, 0);
          collectives_run_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  if (waits) {
    auto& blocked = blocked_[static_cast<std::size_t>(self)];
    blocked.kind = BlockedState::Kind::kCollective;
    blocked.comm = comm;
    blocked.op = op;
    blocked.slot = slot;
    RACE_ATOMIC("engine.collsite.done", ucomm, slot);
    while (!site->done.load(std::memory_order_acquire)) {
      scheduler_->block(op_name(op));
      RACE_ATOMIC("engine.collsite.done", ucomm, slot);
    }
    blocked = BlockedState{};
  }
  bool destroy = false;
  {
    // Re-entering the site lock joins every participant's deposit and the
    // completer's finish — the full-barrier happens-before edge.
    const prof::TimedLockGuard site_lock(site->m, prof::LockClass::kCollSite);
    race::ScopedSync sitelock("engine.collsite", ucomm, slot);
    RACE_READ("engine.collsite", ucomm, slot);
    if (site->max_arrive > own_arrive)
      wait_[static_cast<std::size_t>(self)] += site->max_arrive - own_arrive;
    RACE_WRITE("engine.vtime", static_cast<std::uint64_t>(self), 0);
    vtime_[static_cast<std::size_t>(self)] =
        std::max(own_arrive, site->complete_vtime);
    extract(*site);
    destroy = ++site->extracted == site->expected && !site->forced;
  }
  if (destroy) {
    const prof::TimedLockGuard map_lock(collmap_m_, prof::LockClass::kCollMap);
    race::ScopedSync maplock("engine.collmap", ucomm, 0);
    RACE_WRITE("engine.collmap", ucomm, 0);
    coll_sites_.erase(key);
  }
}

double Engine::modelled_completion(const CollSite& site) const {
  double t = site.max_arrive + kNetModel.collective(site.arrived, site.bytes);
  if (site.arrived < opts_.nprocs) t += kFaultTolerance.recv_fail_delay();
  return t;
}

namespace {
void apply_reduce(ReduceOp op, std::vector<std::uint64_t>& acc,
                  const std::vector<std::uint64_t>& in) {
  if (acc.size() < in.size()) acc.resize(in.size(), 0);
  for (std::size_t i = 0; i < in.size(); ++i) {
    switch (op) {
      case ReduceOp::kSum: acc[i] += in[i]; break;
      case ReduceOp::kMax: acc[i] = std::max(acc[i], in[i]); break;
      case ReduceOp::kMin: acc[i] = std::min(acc[i], in[i]); break;
      case ReduceOp::kBor: acc[i] |= in[i]; break;
    }
  }
}

void fold_u64_contribs(Engine::CollSite& s) {
  bool first = true;
  for (const auto& c : s.u64_contribs) {
    if (first) {
      s.reduce_result = c;
      first = false;
    } else {
      apply_reduce(s.rop, s.reduce_result, c);
    }
  }
}
}  // namespace

void Engine::finish_site(int comm, std::uint64_t slot, CollSite& site,
                         double complete_vtime) {
  site.expected = site.arrived;
  site.complete_vtime = complete_vtime;
  if (site.op == Op::kReduce || site.op == Op::kAllreduce)
    fold_u64_contribs(site);
  // Store-release after the fold: a waiter that observes done == true is
  // guaranteed to see the folded results when it re-locks the site.
  RACE_ATOMIC("engine.collsite.done", static_cast<std::uint64_t>(comm), slot);
  site.done.store(true, std::memory_order_release);
  // Epoch boundary: completion of a marker-communicator collective is the
  // protocol's global synchronization point.
  if (comm == kCommMarker) race::epoch();
  // The caller is the running last arrival, or the stall handler (no fiber
  // running); waking a running fiber would leave it a stray wake token.
  const int running = scheduler_->current();
  for (Rank r = 0; r < opts_.nprocs; ++r)
    if (r != running) scheduler_->unblock(r);
}

void Engine::pmpi_barrier(Rank self, int comm) {
  collective_arrive(
      self, comm, Op::kBarrier, [](CollSite&) {}, [](CollSite&) {});
}

std::vector<std::uint8_t> Engine::pmpi_bcast(Rank self, int comm, Rank root,
                                             std::vector<std::uint8_t> contrib,
                                             std::size_t declared_bytes) {
  const bool is_root = self == root;
  std::vector<std::uint8_t> result;
  collective_arrive(
      self, comm, Op::kBcast,
      [&](CollSite& s) {
        s.root = root;
        s.bytes = std::max({s.bytes, declared_bytes, contrib.size()});
        if (is_root) s.bcast_result = std::move(contrib);
      },
      [&](CollSite& s) { result = s.bcast_result; });
  return result;
}

std::vector<std::uint64_t> Engine::pmpi_reduce(
    Rank self, int comm, Rank root, ReduceOp op,
    std::vector<std::uint64_t> contrib, std::size_t declared_bytes) {
  std::vector<std::uint64_t> result;
  collective_arrive(
      self, comm, Op::kReduce,
      [&](CollSite& s) {
        s.root = root;
        s.rop = op;
        s.bytes = std::max({s.bytes, declared_bytes,
                            contrib.size() * sizeof(std::uint64_t)});
        s.u64_contribs[static_cast<std::size_t>(self)] = std::move(contrib);
      },
      [&](CollSite& s) {
        if (self == s.root) result = s.reduce_result;
      });
  return result;
}

std::vector<std::uint64_t> Engine::pmpi_allreduce(
    Rank self, int comm, ReduceOp op, std::vector<std::uint64_t> contrib,
    std::size_t declared_bytes) {
  std::vector<std::uint64_t> result;
  collective_arrive(
      self, comm, Op::kAllreduce,
      [&](CollSite& s) {
        s.rop = op;
        s.bytes = std::max({s.bytes, declared_bytes,
                            contrib.size() * sizeof(std::uint64_t)});
        s.u64_contribs[static_cast<std::size_t>(self)] = std::move(contrib);
      },
      [&](CollSite& s) { result = s.reduce_result; });
  return result;
}

std::vector<std::vector<std::uint8_t>> Engine::pmpi_gather(
    Rank self, int comm, Rank root, std::vector<std::uint8_t> contrib,
    std::size_t declared_bytes) {
  std::vector<std::vector<std::uint8_t>> result;
  collective_arrive(
      self, comm, Op::kGather,
      [&](CollSite& s) {
        s.root = root;
        s.bytes = std::max({s.bytes, declared_bytes, contrib.size()});
        s.byte_contribs[static_cast<std::size_t>(self)] = std::move(contrib);
      },
      [&](CollSite& s) {
        if (self == s.root) result = s.byte_contribs;
      });
  return result;
}

std::vector<std::vector<std::uint8_t>> Engine::pmpi_allgather(
    Rank self, int comm, std::vector<std::uint8_t> contrib,
    std::size_t declared_bytes) {
  std::vector<std::vector<std::uint8_t>> result;
  collective_arrive(
      self, comm, Op::kAllgather,
      [&](CollSite& s) {
        s.bytes = std::max({s.bytes, declared_bytes, contrib.size()});
        s.byte_contribs[static_cast<std::size_t>(self)] = std::move(contrib);
      },
      [&](CollSite& s) { result = s.byte_contribs; });
  return result;
}

std::vector<std::uint8_t> Engine::pmpi_scatter(
    Rank self, int comm, Rank root,
    std::vector<std::vector<std::uint8_t>> contrib,
    std::size_t declared_bytes) {
  const bool is_root = self == root;
  if (is_root) {
    CHAM_CHECK_MSG(contrib.size() == static_cast<std::size_t>(opts_.nprocs),
                   "scatter root must supply one blob per rank");
  }
  std::vector<std::uint8_t> result;
  collective_arrive(
      self, comm, Op::kScatter,
      [&](CollSite& s) {
        s.root = root;
        s.bytes = std::max(s.bytes, declared_bytes);
        if (is_root) {
          for (const auto& piece : contrib)
            s.bytes = std::max(s.bytes, piece.size());
          s.byte_contribs = std::move(contrib);
        }
      },
      [&](CollSite& s) {
        result = s.byte_contribs[static_cast<std::size_t>(self)];
      });
  return result;
}

void Engine::pmpi_alltoall(Rank self, int comm, std::size_t bytes) {
  collective_arrive(
      self, comm, Op::kAlltoall,
      [&](CollSite& s) {
        // All-to-all moves P messages per rank; charge the aggregate.
        s.bytes = std::max(
            s.bytes, bytes * static_cast<std::size_t>(opts_.nprocs));
      },
      [](CollSite&) {});
}

bool Engine::approximate_progress_step() {
  bool progressed = false;
  // Cancel every outstanding receive with a synthetic empty message: the
  // matching send never existed in the (approximated) trace.
  for (int comm = 0; comm < kNumComms; ++comm) {
    for (Rank r = 0; r < opts_.nprocs; ++r) {
      for (const PendingRecv& want :
           take_posted(comm, r, [](const PendingRecv&) { return true; })) {
        Message msg;
        msg.src = want.src_match == kAnySource ? 0 : want.src_match;
        msg.tag = want.tag_match == kAnyTag ? 0 : want.tag_match;
        RACE_READ("engine.vtime", static_cast<std::uint64_t>(r), 0);
        msg.arrive_vtime = vtime_[static_cast<std::size_t>(r)];
        deliver(r, want.req, std::move(msg));
        cancelled_recvs_.fetch_add(1, std::memory_order_relaxed);
        progressed = true;
      }
    }
  }
  // Force-complete collectives some ranks never reached.
  for_each_open_site([&](int comm, std::uint64_t slot, CollSite& site) {
    site.forced = true;
    finish_site(comm, slot, site, site.max_arrive);
    forced_collectives_.fetch_add(1, std::memory_order_relaxed);
    progressed = true;
  });
  return progressed;
}

void Engine::for_each_open_site(
    const std::function<void(int, std::uint64_t, CollSite&)>& visit) {
  // The stall handler runs with every fiber quiescent, but take the locks
  // anyway — the site pointers must not dangle if a woken fiber erases a
  // site on resume.
  const prof::TimedLockGuard map_lock(collmap_m_, prof::LockClass::kCollMap);
  for (auto& [key, site] : coll_sites_) {
    const auto ucomm = static_cast<std::uint64_t>(key.first);
    const prof::TimedLockGuard site_lock(site.m, prof::LockClass::kCollSite);
    race::ScopedSync sitelock("engine.collsite", ucomm, key.second);
    RACE_WRITE("engine.collsite", ucomm, key.second);
    if (site.done.load(std::memory_order_relaxed) || site.arrived == 0)
      continue;
    visit(key.first, key.second, site);
  }
}

// --------------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------------

std::vector<Rank> Engine::live_ranks() const {
  std::vector<Rank> out;
  for (Rank r = 0; r < opts_.nprocs; ++r)
    if (!is_failed(r)) out.push_back(r);
  return out;
}

std::vector<Rank> Engine::failed_ranks() const {
  std::vector<Rank> out;
  for (Rank r = 0; r < opts_.nprocs; ++r)
    if (is_failed(r)) out.push_back(r);
  return out;
}

void Engine::fault_point(Rank self, const CallInfo& info) {
  const auto s = static_cast<std::size_t>(self);
  const std::uint64_t call_index = ++call_count_[s];
  if (info.is_marker) ++marker_count_[s];
  const double slow = injector_->slowdown(self, call_index);
  if (slow > 0.0) {
    vtime_[s] += slow;
    if (obs::Timeline* tl = obs::timeline())
      tl->instant(obs::Timeline::rank_tid(self), "fault.slowdown", "fault",
                  {obs::arg_num("seconds", slow)});
  }
  const std::uint64_t site = site_probe_ ? site_probe_(self) : 0;
  if (injector_->crash_at_call(self, call_index, marker_count_[s], site)) {
    if (obs::Timeline* tl = obs::timeline())
      tl->instant(obs::Timeline::rank_tid(self), "fault.crash", "fault",
                  {obs::arg_int("call", static_cast<std::int64_t>(call_index))});
    fail_rank(self);
    scheduler_->exit_current();
  }
}

void Engine::tool_op_fault_point(Rank self) {
  const auto s = static_cast<std::size_t>(self);
  const std::uint64_t op_index = ++toolop_count_[s];
  if (injector_->crash_at_tool_op(self, op_index)) {
    if (obs::Timeline* tl = obs::timeline())
      tl->instant(obs::Timeline::rank_tid(self), "fault.crash", "fault",
                  {obs::arg_int("toolop", static_cast<std::int64_t>(op_index))});
    fail_rank(self);
    scheduler_->exit_current();
  }
}

void Engine::fail_rank(Rank r) {
  const auto s = static_cast<std::size_t>(r);
  RACE_ATOMIC("engine.failed", static_cast<std::uint64_t>(r), 0);
  if (failed_[s].exchange(true, std::memory_order_acq_rel)) return;
  failed_count_.fetch_add(1, std::memory_order_acq_rel);
  // A dead rank will never consume anything: purge its posted receives so a
  // live sender cannot match one (the send fails fast instead), and retire
  // its outstanding requests. fail_rank only ever runs on the dying rank's
  // own fiber, so the request slots stay owner-written.
  for (int comm = 0; comm < kNumComms; ++comm)
    take_posted(comm, r, [](const PendingRecv&) { return true; });
  RACE_WRITE("engine.requests", static_cast<std::uint64_t>(r), 0);
  for (auto& state : requests_[s]) state.active = false;
}

bool Engine::fault_progress_step() {
  // First route collectives around the dead: any site where every survivor
  // already arrived completes short-handed.
  bool progressed = false;
  for_each_open_site([&](int comm, std::uint64_t slot, CollSite& site) {
    if (site.arrived < live_expected()) return;
    finish_site(comm, slot, site, modelled_completion(site));
    if (comm != kCommTool)
      collectives_run_.fetch_add(1, std::memory_order_relaxed);
    progressed = true;
  });
  // Then time out receives whose awaited source is dead: deliver a
  // synthetic peer_failed completion after the full backoff budget.
  const auto from_dead = [this](const PendingRecv& want) {
    return want.src_match != kAnySource && is_failed(want.src_match);
  };
  for (int comm = 0; comm < kNumComms; ++comm) {
    for (Rank r = 0; r < opts_.nprocs; ++r) {
      if (is_failed(r)) continue;
      for (const PendingRecv& want : take_posted(comm, r, from_dead)) {
        Message msg;
        msg.src = want.src_match;
        msg.tag = want.tag_match == kAnyTag ? 0 : want.tag_match;
        msg.peer_failed = true;
        RACE_READ("engine.vtime", static_cast<std::uint64_t>(r), 0);
        msg.arrive_vtime = vtime_[static_cast<std::size_t>(r)] +
                           kFaultTolerance.recv_fail_delay();
        deliver(r, want.req, std::move(msg));
        progressed = true;
      }
    }
  }
  return progressed;
}

void Engine::advance_compute(Rank self, double seconds) {
  CHAM_CHECK_MSG(seconds >= 0.0, "compute time must be non-negative");
  RACE_WRITE("engine.vtime", static_cast<std::uint64_t>(self), 0);
  vtime_[static_cast<std::size_t>(self)] += seconds;
}

// --------------------------------------------------------------------------
// Introspection
// --------------------------------------------------------------------------

bool Engine::rank_finished(Rank r) const {
  if (!scheduler_) return false;
  return scheduler_->finished(r);
}

std::vector<PendingRecvInfo> Engine::pending_recvs(int comm, Rank r) const {
  std::vector<PendingRecvInfo> out;
  const prof::TimedLockGuard mbox_lock(mbox_m_[box(comm, r)], prof::LockClass::kMailbox);
  for (const PendingRecv& p : pending_.at(box(comm, r)).view())
    out.push_back({p.src_match, p.tag_match});
  return out;
}

Engine::RequestCounts Engine::active_requests(Rank r) const {
  RequestCounts counts;
  for (const RequestState& state : requests_.at(static_cast<std::size_t>(r))) {
    if (!state.active || state.comm == kCommTool) continue;
    if (state.is_recv)
      ++counts.recvs;
    else
      ++counts.sends;
  }
  return counts;
}

// --------------------------------------------------------------------------
// Hook dispatch
// --------------------------------------------------------------------------

void Engine::tool_pre(Rank self, const CallInfo& info) {
  // Crashes fire at traced-call entry, before any tool hook runs: the rank
  // dies as if it never made the call, and the tool never observes it —
  // crashed calls therefore never open a timeline span either.
  if (injector_ != nullptr) fault_point(self, info);
  if (obs::Timeline* tl = obs::timeline()) {
    std::vector<obs::TimelineArg> args;
    if (info.peer != kAnySource) args.push_back(obs::arg_int("peer", info.peer));
    if (info.bytes != 0)
      args.push_back(
          obs::arg_int("bytes", static_cast<std::int64_t>(info.bytes)));
    tl->begin(obs::Timeline::rank_tid(self), op_name(info.op),
              info.is_marker ? "mpi.marker" : "mpi", std::move(args));
  }
  if (tool_ != nullptr) tool_->on_pre(self, info, pmpi(self));
}

void Engine::tool_post(Rank self, const CallInfo& info) {
  if (tool_ != nullptr) tool_->on_post(self, info, pmpi(self));
  // Closed after the post hook so the span covers tool work riding on the
  // call (marker clustering, finalize merges).
  if (obs::Timeline* tl = obs::timeline())
    tl->end(obs::Timeline::rank_tid(self));
}

}  // namespace cham::sim
