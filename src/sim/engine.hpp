// The minimpi engine: a deterministic, single-process MPI runtime.
//
// Every rank is a fiber (sim/shard.hpp). The engine implements tag/source
// matched point-to-point messaging with eager (buffered) sends, tree-modelled
// collectives, per-rank virtual clocks driven by the NetModel, and a PMPI
// interposition layer: traced calls enter through the Mpi facade which fires
// tool pre/post hooks around the internal pmpi_* entry points, exactly the
// structure ScalaTrace/Chameleon rely on in real MPI.
//
// Communicators: all span the full world. kCommWorld carries application
// traffic, kCommMarker carries only the Chameleon marker barrier (the paper's
// "unique value in the communicator field"), kCommTool carries tool-internal
// traffic which never reaches the hooks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/netmodel.hpp"
#include "sim/shard.hpp"
#include "sim/types.hpp"

namespace cham::sim {

class FaultInjector;
class Mpi;
class Pmpi;
class Tool;

/// Virtual-time budgets governing how survivors detect and ride out dead
/// peers (used only when a FaultInjector is installed).
struct FaultTolerance {
  /// Base virtual-time budget charged when a receive's source is dead: the
  /// receiver retries `retries` times with exponentially backed-off waits
  /// (recv_timeout * backoff^i) before giving up with peer_failed.
  double recv_timeout = 1.0e-4;
  int retries = 3;
  double backoff = 2.0;

  /// Total wait a failed receive costs: sum of all backed-off retries.
  [[nodiscard]] double recv_fail_delay() const {
    double total = 0.0;
    double step = recv_timeout;
    for (int i = 0; i < retries; ++i) {
      total += step;
      step *= backoff;
    }
    return total;
  }
};

/// The interconnect and failure-detection models every engine runs with.
inline constexpr NetModel kNetModel{};
inline constexpr FaultTolerance kFaultTolerance{};

struct EngineOptions {
  int nprocs = 4;
  // TSan instrumentation inflates frame sizes (shadow spills plus
  // __tsan_func_entry bookkeeping), and TSan is not told where fiber stacks
  // end (see src/sim/context.hpp), so give the engine + clustering call
  // chains generous headroom in that configuration only.
#if defined(__SANITIZE_THREAD__)
  std::size_t stack_bytes = 2 * 1024 * 1024;
#else
  std::size_t stack_bytes = 256 * 1024;
#endif
  /// Non-zero: each epoch runs every shard's ready fibers in an order
  /// shuffled per (seed, shard, epoch) instead of rank order
  /// (ShardedScheduler::set_seed) — at one thread too. Protocol output must
  /// not depend on this — the ChamRace determinism auditor diffs runs
  /// across seeds.
  std::uint64_t sched_seed = 0;
  /// Worker threads (shards) for the fiber scheduler: min(N, nprocs)
  /// shards. 1 — the default — runs every fiber on the calling thread.
  /// Protocol output is identical at every count (docs/ENGINE.md,
  /// determinism contract).
  int threads = 1;
};

/// An in-flight or delivered message.
struct Message {
  Rank src = 0;
  int tag = 0;
  std::size_t bytes = 0;            ///< declared size (drives the time model)
  std::vector<std::uint8_t> payload;  ///< actual data (may be empty)
  double arrive_vtime = 0.0;
  /// Synthetic completion: the sender crashed, no data ever arrived.
  bool peer_failed = false;
};

/// Nonblocking-operation handle, indexed per rank.
using Request = int;
inline constexpr Request kNullRequest = -1;

/// What a rank is blocked on right now. Exposed so analysis tools can build
/// a wait-for graph from the engine's blocked-fiber state instead of parsing
/// the human-readable block notes.
struct BlockedState {
  enum class Kind : std::uint8_t { kNone, kRecv, kCollective };

  Kind kind = Kind::kNone;
  int comm = kCommWorld;
  // kRecv: the posted matching criteria of the awaited request.
  Rank src_match = kAnySource;
  int tag_match = kAnyTag;
  // kCollective: the operation and the per-comm rendezvous slot.
  Op op = Op::kBarrier;
  std::uint64_t slot = 0;
};

/// A posted-but-unmatched receive (introspection mirror of the engine's
/// pending queue entries).
struct PendingRecvInfo {
  Rank src_match = kAnySource;
  int tag_match = kAnyTag;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Install the PMPI tool (or nullptr for an uninstrumented run). Must be
  /// called before run().
  void set_tool(Tool* tool) { tool_ = tool; }

  /// Install a fault injector (or nullptr). Must be called before run().
  /// With no injector the engine takes none of the fault-tolerance code
  /// paths, so fault-free runs are bit-identical to pre-fault-support runs.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] bool fault_injection_enabled() const {
    return injector_ != nullptr;
  }

  /// Optional probe mapping a rank to its innermost call-site id; enables
  /// `crash ... site=` triggers. The sim layer cannot see the trace layer's
  /// CallSiteRegistry, so the harness wires this up.
  void set_site_probe(std::function<std::uint64_t(Rank)> probe) {
    site_probe_ = std::move(probe);
  }

  // --- liveness (fault injection) ----------------------------------------

  /// True once rank r was killed by an injected crash.
  [[nodiscard]] bool is_failed(Rank r) const {
    return failed_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
  }
  [[nodiscard]] int failed_count() const {
    return failed_count_.load(std::memory_order_acquire);
  }
  /// Surviving ranks, ascending. Equals [0, nprocs) with no failures.
  [[nodiscard]] std::vector<Rank> live_ranks() const;
  [[nodiscard]] std::vector<Rank> failed_ranks() const;
  [[nodiscard]] std::uint64_t messages_lost() const {
    return messages_lost_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_.load(std::memory_order_relaxed);
  }

  /// Launch nprocs ranks, each executing rank_main, and drive them to
  /// completion. May be called once per Engine.
  void run(const std::function<void(Mpi&)>& rank_main);

  [[nodiscard]] int nprocs() const { return opts_.nprocs; }
  [[nodiscard]] Tool* tool() const { return tool_; }

  /// Virtual completion time of a rank / of the whole run.
  [[nodiscard]] double vtime(Rank r) const;
  [[nodiscard]] double max_vtime() const;
  /// Sum of all ranks' completion times — the paper's "aggregated
  /// wall-clock times across all nodes".
  [[nodiscard]] double vtime_sum() const;
  /// Time rank r spent waiting (blocked on receives/collectives while its
  /// partners caught up) — the DVFS-harvestable idle time of the paper's
  /// §VIII energy discussion.
  [[nodiscard]] double wait_seconds(Rank r) const;

  [[nodiscard]] std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t collectives_run() const {
    return collectives_run_.load(std::memory_order_relaxed);
  }

  /// Replay robustness: instead of reporting a deadlock when nothing can
  /// progress, cancel outstanding receives (synthetic empty messages) and
  /// force-complete partially-arrived collectives. Imperfectly clustered
  /// traces (K below the natural behaviour-group count) replay these
  /// approximations; the counters make the information loss visible.
  void enable_approximate_progress() { approximate_ = true; }
  [[nodiscard]] std::uint64_t cancelled_recvs() const {
    return cancelled_recvs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t forced_collectives() const {
    return forced_collectives_.load(std::memory_order_relaxed);
  }

  // --- PMPI layer (used by the Mpi/Pmpi facades and by tools) -------------

  CommResult pmpi_send(Rank self, int comm, Rank dest, int tag,
                       std::size_t bytes, std::vector<std::uint8_t> payload);
  Message pmpi_recv(Rank self, int comm, Rank src, int tag,
                    RecvStatus* status);
  /// Nonblocking probe-and-receive: succeeds only when a matching message
  /// is already queued. Used by fault-tolerant protocols to drain re-homed
  /// payloads after a synchronization point.
  bool pmpi_try_recv(Rank self, int comm, Rank src, int tag, Message* out);
  Request pmpi_isend(Rank self, int comm, Rank dest, int tag,
                     std::size_t bytes, std::vector<std::uint8_t> payload);
  Request pmpi_irecv(Rank self, int comm, Rank src, int tag,
                     std::size_t declared_bytes);
  Message pmpi_wait(Rank self, Request req, RecvStatus* status);

  void pmpi_barrier(Rank self, int comm);
  /// Root's contribution is returned to everyone.
  std::vector<std::uint8_t> pmpi_bcast(Rank self, int comm, Rank root,
                                       std::vector<std::uint8_t> contrib,
                                       std::size_t declared_bytes);
  /// Elementwise reduction; result valid only at root (returned to all for
  /// simplicity; facades enforce root-only semantics).
  std::vector<std::uint64_t> pmpi_reduce(Rank self, int comm, Rank root,
                                         ReduceOp op,
                                         std::vector<std::uint64_t> contrib,
                                         std::size_t declared_bytes = 0);
  std::vector<std::uint64_t> pmpi_allreduce(Rank self, int comm, ReduceOp op,
                                            std::vector<std::uint64_t> contrib,
                                            std::size_t declared_bytes = 0);
  /// Per-rank byte blobs gathered to root (empty vector elsewhere).
  std::vector<std::vector<std::uint8_t>> pmpi_gather(
      Rank self, int comm, Rank root, std::vector<std::uint8_t> contrib,
      std::size_t declared_bytes = 0);
  std::vector<std::vector<std::uint8_t>> pmpi_allgather(
      Rank self, int comm, std::vector<std::uint8_t> contrib,
      std::size_t declared_bytes = 0);
  /// Root's per-rank blobs scattered; returns this rank's piece.
  std::vector<std::uint8_t> pmpi_scatter(
      Rank self, int comm, Rank root,
      std::vector<std::vector<std::uint8_t>> contrib,
      std::size_t declared_bytes = 0);
  /// Timing-only all-to-all of `bytes` per pair.
  void pmpi_alltoall(Rank self, int comm, std::size_t bytes);

  /// Advance a rank's virtual clock by a compute region.
  void advance_compute(Rank self, double seconds);

  /// State of one in-progress collective (public so free helper functions
  /// can fold contributions; not part of the user-facing API).
  struct CollSite {
    /// Per-site lock: guards every field except `done` (shard workers of
    /// different ranks deposit/extract concurrently). Innermost after the
    /// collmap lock; never held across a block().
    std::mutex m;
    Op op = Op::kBarrier;
    Rank root = 0;
    ReduceOp rop = ReduceOp::kSum;
    std::size_t bytes = 0;
    int arrived = 0;
    int extracted = 0;
    /// Participants this site waits for before completing and how many
    /// extractions destroy it. Set at completion time: nprocs normally,
    /// fewer when dead ranks are routed around.
    int expected = 0;
    double max_arrive = 0.0;
    /// Completion flag, read lock-free by waiting participants' condition
    /// loops (store-release by the completer pairs with their load-acquire).
    std::atomic<bool> done{false};
    /// Completed by approximate progress without every rank. A forced site
    /// stays in the table for the rest of the run, so a late arrival joins
    /// it rather than opening a fresh site.
    bool forced = false;
    double complete_vtime = 0.0;
    std::vector<std::vector<std::uint8_t>> byte_contribs;
    std::vector<std::vector<std::uint64_t>> u64_contribs;
    std::vector<std::uint8_t> bcast_result;
    std::vector<std::uint64_t> reduce_result;
  };

  // --- hook dispatch (called by the Mpi facade) ---------------------------
  void tool_pre(Rank self, const CallInfo& info);
  void tool_post(Rank self, const CallInfo& info);

  /// Per-rank untraced facade (valid during run()).
  Pmpi& pmpi(Rank r);

  // --- introspection (for analysis tools; valid during run()) ------------

  /// What rank r is blocked on (Kind::kNone while it is runnable/finished).
  [[nodiscard]] const BlockedState& blocked_state(Rank r) const {
    return blocked_.at(static_cast<std::size_t>(r));
  }
  /// True once rank r's fiber has returned from rank_main + finalize.
  [[nodiscard]] bool rank_finished(Rank r) const;
  /// Sent-but-never-received messages queued at rank r on `comm` — any
  /// entry surviving MPI_Finalize is a message leak.
  [[nodiscard]] std::span<const Message> unexpected_messages(int comm,
                                                            Rank r) const {
    return unexpected_.at(box(comm, r)).view();
  }
  /// Posted receives still waiting for a matching send.
  [[nodiscard]] std::vector<PendingRecvInfo> pending_recvs(int comm,
                                                           Rank r) const;
  /// Active (never waited / never completed) requests of rank r on traced
  /// communicators, counted separately for sends and receives. Requests on
  /// the tool communicator are a tool's own business and excluded — one
  /// PMPI layer cannot see another layer's internal traffic. Eager isend
  /// requests complete immediately, so an unwaited send request is benign;
  /// an unwaited receive request holds a message (or a pending slot)
  /// forever.
  struct RequestCounts {
    int sends = 0;
    int recvs = 0;
  };
  [[nodiscard]] RequestCounts active_requests(Rank r) const;
  /// Number of collectives rank r has entered on `comm` (its next slot).
  [[nodiscard]] std::uint64_t collective_seq(int comm, Rank r) const {
    return coll_seq_.at(box(comm, r));
  }

 private:
  struct PendingRecv {
    Rank src_match = kAnySource;
    int tag_match = kAnyTag;
    Request req = kNullRequest;
  };

  struct RequestState {
    bool active = false;
    bool is_recv = false;
    bool complete = false;
    Message msg;
    std::size_t declared_bytes = 0;
    int comm = kCommWorld;
    /// Posted matching criteria (receives only; feeds BlockedState).
    Rank src_match = kAnySource;
    int tag_match = kAnyTag;
  };

  [[nodiscard]] std::size_t box(int comm, Rank r) const {
    return static_cast<std::size_t>(comm) * static_cast<std::size_t>(opts_.nprocs) +
           static_cast<std::size_t>(r);
  }
  static bool matches(const PendingRecv& pending, const Message& msg) {
    return (pending.src_match == kAnySource || pending.src_match == msg.src) &&
           (pending.tag_match == kAnyTag || pending.tag_match == msg.tag);
  }

  RequestState& request_state(Rank self, Request req);
  Request alloc_request(Rank self);
  /// Queue a completion into dest's inbox and wake it. The sender never
  /// touches dest's request slots directly: requests_[dest] can reallocate
  /// while a message is in flight, so only the owning rank (drain_inbox)
  /// writes them — the exact ownership split the sharded engine needs.
  void deliver(Rank dest, Request req, Message&& msg);
  /// Move queued completions into our own request slots (called by the
  /// owning rank from pmpi_wait).
  void drain_inbox(Rank self);
  /// Remove and return the receives of (comm, r) still posted that `take`
  /// selects, oldest first. The caller delivers them after the mailbox lock
  /// is released: deliver() takes the inbox lock, and the lock order is
  /// mailbox → inbox.
  std::vector<PendingRecv> take_posted(
      int comm, Rank r, const std::function<bool(const PendingRecv&)>& take);
  /// Rank self receives a message that arrives at `arrive_vtime`: it waits
  /// for an early clock to catch up, then pays the receive overhead.
  void complete_recv(Rank self, double arrive_vtime);
  /// Stall-handler step for approximated traces: cancels every posted
  /// receive and force-completes every partially arrived collective at its
  /// latest arrival. Returns true if it unblocked someone.
  bool approximate_progress_step();
  /// Run `visit(comm, slot, site)` under the site's lock for every site
  /// some rank has arrived at and that is not yet done (stall handler).
  void for_each_open_site(
      const std::function<void(int, std::uint64_t, CollSite&)>& visit);
  /// Detail of rank r's block note, composed from blocked_ only when the
  /// scheduler reads the note (deadlock report, block_note()): comm,
  /// source and tag of a receive; comm, slot and arrivals of a collective.
  [[nodiscard]] std::string describe_block(Rank r);

  // --- fault machinery (active only with an installed injector) -----------

  /// Consulted at every traced-call entry; kills the calling fiber if the
  /// plan says so (never returns in that case).
  void fault_point(Rank self, const CallInfo& info);
  /// Consulted at tool-communicator p2p entries (`toolop=` triggers) so a
  /// rank can die mid-protocol; never inside a collective.
  void tool_op_fault_point(Rank self);
  /// Mark r dead, cancel its posted receives, complete any collective sites
  /// it already joined, and fail live peers blocked on it.
  void fail_rank(Rank r);
  /// Stall-handler step for faulty runs: completes collectives whose live
  /// participants have all arrived (dead ranks are routed around) and
  /// synthesises peer_failed completions for receives whose source is
  /// dead. Returns true if it unblocked someone.
  bool fault_progress_step();
  /// Ranks a collective must wait for: everyone still alive.
  [[nodiscard]] int live_expected() const {
    return opts_.nprocs - failed_count_.load(std::memory_order_acquire);
  }

  /// Modelled completion time of a site whose live participants have all
  /// arrived: the tree collective after the latest arrival, plus the
  /// failure-detection budget when dead ranks are routed around.
  [[nodiscard]] double modelled_completion(const CollSite& site) const;
  /// The one way a collective site finishes (caller holds its lock): every
  /// arrival so far takes part, a reduction is folded, `done` is published
  /// and every blocked rank but the caller is woken. Participants leave at
  /// max(own arrival, complete_vtime), so a rank reaching a site that was
  /// forced without it never moves its clock backwards.
  void finish_site(int comm, std::uint64_t slot, CollSite& site,
                   double complete_vtime);

  /// Collective rendezvous: blocks until all live ranks of `comm` arrive at
  /// the same per-comm slot; the last arrival finishes the site. Every
  /// participant then runs `extract` on the completed site to copy out its
  /// results. The site is destroyed once all participants extracted, so
  /// long runs do not accumulate per-collective state.
  void collective_arrive(Rank self, int comm, Op op,
                         const std::function<void(CollSite&)>& deposit,
                         const std::function<void(CollSite&)>& extract);

  EngineOptions opts_;
  Tool* tool_ = nullptr;
  FaultInjector* injector_ = nullptr;
  std::function<std::uint64_t(Rank)> site_probe_;
  bool ran_ = false;
  bool approximate_ = false;
  std::atomic<std::uint64_t> cancelled_recvs_{0};
  std::atomic<std::uint64_t> forced_collectives_{0};

  std::unique_ptr<ShardedScheduler> scheduler_;
  std::vector<Mpi> mpis_;
  std::vector<Pmpi> pmpis_;
  // Owner-written per-rank state: only rank r's fiber writes slot r, so no
  // lock is needed; cross-rank reads happen at quiescent points (the stall
  // handler, post-run). The ChamRace analyzer checks exactly this
  // single-writer discipline.
  std::vector<double> vtime_;
  std::vector<double> wait_;
  std::vector<BlockedState> blocked_;  // [rank]

  static constexpr int kNumComms = 3;
  // Cross-rank mailboxes, guarded by real locks so shard workers can send
  // into any rank concurrently (lock order, outer to inner: mailbox →
  // inbox → scheduler shard; collmap → site; never a cycle):
  //   mbox_m_[box(comm, r)]  — pending_/unexpected_ of (comm, r)
  //   inbox_m_[r]            — inbox_[r]
  //   collmap_m_             — coll_sites_ map shape (insert/erase)
  //   CollSite::m            — one site's fields
  // With one shard the locks are always uncontended — one futex-free
  // atomic op each.
  std::unique_ptr<std::mutex[]> mbox_m_;             // [comm*P + rank]
  std::unique_ptr<std::mutex[]> inbox_m_;            // [rank]
  std::mutex collmap_m_;
  std::vector<Fifo<Message>> unexpected_;           // [comm*P + rank]
  std::vector<Fifo<PendingRecv>> pending_;          // [comm*P + rank]
  std::vector<std::vector<RequestState>> requests_;  // [rank]
  /// Completed-delivery inboxes, one per receiving rank (see deliver()).
  std::vector<Fifo<std::pair<Request, Message>>> inbox_;  // [rank]
  std::vector<std::uint64_t> coll_seq_;              // [comm*P + rank]
  std::map<std::pair<int, std::uint64_t>, CollSite> coll_sites_;

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> collectives_run_{0};

  // Fault-injection state (all zero/empty without an installed injector).
  std::unique_ptr<std::atomic<bool>[]> failed_;  // [rank]
  std::atomic<int> failed_count_{0};
  std::vector<std::uint64_t> call_count_;    // [rank] traced calls entered
  std::vector<std::uint64_t> marker_count_;  // [rank] markers entered
  std::vector<std::uint64_t> toolop_count_;  // [rank] tool-comm p2p ops
  std::atomic<std::uint64_t> messages_lost_{0};
  std::atomic<std::uint64_t> retransmissions_{0};
};

}  // namespace cham::sim
