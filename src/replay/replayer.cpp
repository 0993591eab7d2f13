#include "replay/replayer.hpp"

#include <cmath>

#include "replay/interp.hpp"
#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "support/logging.hpp"

namespace cham::replay {

namespace {

void replay_rank(sim::Mpi& mpi, const std::vector<trace::TraceNode>& trace,
                 std::uint64_t* events_out) {
  EventCursor cursor(trace, mpi.rank());
  std::vector<sim::Request> outstanding;

  while (!cursor.done()) {
    const trace::EventRecord& ev = *cursor.current();

    // Simulated computation: the recorded delta-time distribution stands in
    // for the code between MPI calls (ScalaReplay's "sleeps").
    const double dt = ev.delta.representative();
    if (dt > 0) mpi.compute(dt);

    const sim::Rank src = ev.src.resolve(mpi.rank(), mpi.size());
    const sim::Rank dest = ev.dest.resolve(mpi.rank(), mpi.size());

    switch (ev.op) {
      case sim::Op::kSend:
        mpi.send(dest, ev.bytes, ev.tag);
        break;
      case sim::Op::kIsend:
        outstanding.push_back(mpi.isend(dest, ev.bytes, ev.tag));
        break;
      case sim::Op::kRecv:
        mpi.recv(src, ev.bytes, ev.tag);
        break;
      case sim::Op::kIrecv:
        outstanding.push_back(mpi.irecv(src, ev.bytes, ev.tag));
        break;
      case sim::Op::kWait:
        if (!outstanding.empty()) {
          mpi.wait(outstanding.front());
          outstanding.erase(outstanding.begin());
        }
        break;
      case sim::Op::kWaitall:
        mpi.waitall(outstanding);
        outstanding.clear();
        break;
      case sim::Op::kBarrier:
        if (ev.is_marker) {
          mpi.marker();
        } else {
          mpi.barrier();
        }
        break;
      case sim::Op::kBcast:
        mpi.bcast(ev.bytes, static_cast<sim::Rank>(ev.dest.value));
        break;
      case sim::Op::kReduce:
        mpi.reduce(ev.bytes, static_cast<sim::Rank>(ev.dest.value));
        break;
      case sim::Op::kAllreduce:
        mpi.allreduce(ev.bytes);
        break;
      case sim::Op::kGather:
        mpi.gather(ev.bytes, static_cast<sim::Rank>(ev.dest.value));
        break;
      case sim::Op::kScatter:
        mpi.scatter(ev.bytes, static_cast<sim::Rank>(ev.dest.value));
        break;
      case sim::Op::kAllgather:
        mpi.allgather(ev.bytes);
        break;
      case sim::Op::kAlltoall:
        mpi.alltoall(ev.bytes);
        break;
      case sim::Op::kInit:
      case sim::Op::kFinalize:
      case sim::Op::kGap:
        break;  // structural markers / lost intervals; nothing to re-issue
    }
    cursor.next();
  }
  // Drain any never-waited requests so the engine shuts down cleanly.
  mpi.waitall(outstanding);
  *events_out += cursor.yielded();
}

}  // namespace

ReplayResult replay_trace(const std::vector<trace::TraceNode>& trace,
                          const ReplayOptions& options) {
  CHAM_CHECK_MSG(options.nprocs >= 1, "replay needs a world size");
  sim::Engine engine({.nprocs = options.nprocs});
  engine.enable_approximate_progress();
  std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(options.nprocs), 0);
  engine.run([&](sim::Mpi& mpi) {
    replay_rank(mpi, trace, &per_rank[static_cast<std::size_t>(mpi.rank())]);
  });

  ReplayResult result;
  result.vtime = engine.max_vtime();
  for (std::uint64_t n : per_rank) result.events_replayed += n;
  result.messages = engine.messages_sent();
  result.collectives = engine.collectives_run();
  result.cancelled_recvs = engine.cancelled_recvs();
  result.forced_collectives = engine.forced_collectives();
  return result;
}

double replay_accuracy(double reference_seconds, double measured_seconds) {
  if (reference_seconds <= 0) return 0.0;
  const double acc =
      1.0 - std::abs(reference_seconds - measured_seconds) / reference_seconds;
  return std::max(0.0, std::min(1.0, acc));
}

}  // namespace cham::replay
