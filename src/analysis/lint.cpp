#include "analysis/lint.hpp"

#include <algorithm>
#include <sstream>

#include "cluster/signature.hpp"
#include "support/histogram.hpp"
#include "trace/serialize.hpp"

namespace cham::analysis {

namespace {

constexpr std::uint8_t kLeafMark = 0xE1;
constexpr std::uint8_t kLoopMark = 0xE2;
constexpr std::uint32_t kMaxBodyLen = 1u << 20;

std::string at(const std::string& path) { return " (at " + path + ")"; }

void check_histogram(const support::Histogram& h, const std::string& path,
                     DiagnosticSink& sink) {
  std::uint64_t bin_sum = 0;
  for (int i = 0; i < support::Histogram::kBins; ++i) bin_sum += h.bin(i);
  if (bin_sum != h.count()) {
    std::ostringstream os;
    os << "histogram bins sum to " << bin_sum << " but count is " << h.count()
       << at(path);
    sink.report(Severity::kError, "histogram.bin_sum", -1, os.str());
  }
  if (h.count() > 0 && h.min() > h.max()) {
    std::ostringstream os;
    os << "histogram min " << h.min() << " exceeds max " << h.max()
       << at(path);
    sink.report(Severity::kError, "histogram.bounds", -1, os.str());
  }
  if (h.count() == 0 && h.total() != 0.0) {
    std::ostringstream os;
    os << "empty histogram carries total " << h.total() << at(path);
    sink.report(Severity::kError, "histogram.empty_sum", -1, os.str());
  }
}

void check_event(const trace::EventRecord& ev, const LintOptions& opts,
                 const std::string& path, DiagnosticSink& sink) {
  if (static_cast<std::uint8_t>(ev.op) >
      static_cast<std::uint8_t>(sim::Op::kGap)) {
    std::ostringstream os;
    os << "event carries invalid operation code "
       << static_cast<int>(static_cast<std::uint8_t>(ev.op)) << at(path);
    sink.report(Severity::kError, "event.bad_op", -1, os.str());
  }
  if (ev.op == sim::Op::kGap) {
    std::ostringstream os;
    os << "gap: interval of failed lead rank " << ev.tag
       << " lost for ranks " << ev.ranks.to_string() << at(path);
    sink.report(Severity::kInfo, "trace.gap", -1, os.str());
  }
  if (ev.comm != sim::kCommWorld && ev.comm != sim::kCommMarker) {
    std::ostringstream os;
    os << op_name(ev.op) << " recorded on communicator " << ev.comm
       << (ev.comm == sim::kCommTool
               ? " (tool-internal traffic leaked into the trace)"
               : " (unknown communicator)")
       << at(path);
    sink.report(Severity::kError, "event.bad_comm", -1, os.str());
  }
  if (ev.is_marker &&
      (ev.op != sim::Op::kBarrier || ev.comm != sim::kCommMarker)) {
    std::ostringstream os;
    os << op_name(ev.op) << " flagged as marker but is not a barrier on the "
       << "marker communicator" << at(path);
    sink.report(Severity::kError, "event.marker_mismatch", -1, os.str());
  }
  if (!ev.is_marker && ev.comm == sim::kCommMarker) {
    std::ostringstream os;
    os << op_name(ev.op) << " on the marker communicator without the marker "
       << "flag" << at(path);
    sink.report(Severity::kError, "event.marker_mismatch", -1, os.str());
  }
  for (const auto* ep : {&ev.src, &ev.dest}) {
    if (static_cast<std::uint8_t>(ep->kind) >
        static_cast<std::uint8_t>(trace::Endpoint::Kind::kAbsolute)) {
      std::ostringstream os;
      os << "event endpoint carries invalid kind "
         << static_cast<int>(static_cast<std::uint8_t>(ep->kind)) << at(path);
      sink.report(Severity::kError, "event.bad_endpoint", -1, os.str());
    } else if (opts.nprocs > 0 &&
               ep->kind == trace::Endpoint::Kind::kAbsolute &&
               (ep->value < 0 || ep->value >= opts.nprocs)) {
      std::ostringstream os;
      os << "absolute endpoint names rank " << ep->value << " outside world "
         << opts.nprocs << at(path);
      sink.report(Severity::kError, "endpoint.out_of_range", -1, os.str());
    }
  }
  if (ev.ranks.empty()) {
    sink.report(Severity::kError, "ranklist.empty", -1,
                "event has an empty ranklist" + at(path));
  } else if (opts.nprocs > 0) {
    const auto& members = ev.ranks.members();
    if (members.front() < 0 || members.back() >= opts.nprocs) {
      std::ostringstream os;
      os << "ranklist " << ev.ranks.to_string() << " exceeds world "
         << opts.nprocs << at(path);
      sink.report(Severity::kError, "ranklist.out_of_range", -1, os.str());
    }
  }
  check_histogram(ev.delta, path, sink);
}

void check_node(const trace::TraceNode& node, const LintOptions& opts,
                const std::string& path, DiagnosticSink& sink) {
  if (node.is_loop()) {
    if (node.body.empty()) {
      sink.report(Severity::kError, "rsd.empty_body", -1,
                  "loop node has an empty body" + at(path));
    }
    if (node.body.size() > kMaxBodyLen) {
      std::ostringstream os;
      os << "loop body length " << node.body.size() << " is implausible"
         << at(path);
      sink.report(Severity::kError, "rsd.body_length", -1, os.str());
    }
    if (node.iters == 1) {
      sink.report(Severity::kInfo, "rsd.single_iteration", -1,
                  "loop of a single iteration (compression never emits "
                  "these)" +
                      at(path));
    }
    for (std::size_t i = 0; i < node.body.size(); ++i) {
      check_node(node.body[i], opts, path + ".body[" + std::to_string(i) + ']',
                 sink);
    }
    return;
  }
  // A default-constructed TraceNode (iters == 0, empty body) reads as a
  // leaf; serialized zero-iteration loops are caught at the wire level.
  check_event(node.event, opts, path, sink);
}

void collect_cover(const trace::TraceNode& node, std::vector<bool>& seen) {
  if (node.is_loop()) {
    for (const auto& child : node.body) collect_cover(child, seen);
    return;
  }
  node.event.ranks.for_each_member([&](sim::Rank r) {
    if (r >= 0 && static_cast<std::size_t>(r) < seen.size())
      seen[static_cast<std::size_t>(r)] = true;
  });
}

/// Feed the trace's leaves to `sig` in order, each loop body once: the
/// first iteration of a loop meets the body's stack signatures in body
/// order, and later iterations add no new distinct ones.
void observe_leaves(const trace::TraceNode& node,
                    cluster::IntervalSignature& sig) {
  if (node.is_loop()) {
    for (const auto& child : node.body) observe_leaves(child, sig);
    return;
  }
  sig.observe(node.event);
}

}  // namespace

void lint_trace(const std::vector<trace::TraceNode>& nodes,
                const LintOptions& opts, DiagnosticSink& sink) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    check_node(nodes[i], opts, "node[" + std::to_string(i) + ']', sink);
  }
  if (opts.expect_full_cover && opts.nprocs > 0) {
    std::vector<bool> seen(static_cast<std::size_t>(opts.nprocs), false);
    for (const auto& node : nodes) collect_cover(node, seen);
    std::vector<int> missing;
    for (int r = 0; r < opts.nprocs; ++r)
      if (!seen[static_cast<std::size_t>(r)]) missing.push_back(r);
    if (!missing.empty()) {
      std::ostringstream os;
      os << "merged trace covers no events of rank(s)";
      for (int r : missing) os << ' ' << r;
      sink.report(Severity::kError, "merge.missing_ranks", -1, os.str());
    }
  }
}

std::uint64_t recompute_callpath(const std::vector<trace::TraceNode>& nodes) {
  cluster::IntervalSignature sig;
  for (const auto& node : nodes) observe_leaves(node, sig);
  return sig.current().callpath;
}

void lint_signature(const std::vector<trace::TraceNode>& nodes,
                    std::uint64_t recorded_callpath, DiagnosticSink& sink) {
  const std::uint64_t actual = recompute_callpath(nodes);
  if (actual != recorded_callpath) {
    std::ostringstream os;
    os << "recorded Call-Path signature 0x" << std::hex << recorded_callpath
       << " does not match the trace's own events (recomputed 0x" << actual
       << ')';
    sink.report(Severity::kError, "signature.mismatch", -1, os.str());
  }
}

// ---------------------------------------------------------------------------
// Wire-level lint: a reporting mirror of trace/serialize.cpp's decoder.
// ---------------------------------------------------------------------------

namespace {

/// Thrown internally to abandon the walk on unrecoverable corruption after
/// the diagnostic has been recorded.
struct WalkAborted {};

class WireLinter {
 public:
  WireLinter(const std::vector<std::uint8_t>& bytes, const LintOptions& opts,
             DiagnosticSink& sink)
      : reader_(bytes), opts_(opts), sink_(sink) {}

  bool run() {
    try {
      const std::uint32_t len = reader_.u32();
      if (len > (1u << 24)) {
        fail("wire.bad_count",
             "trace claims " + std::to_string(len) + " top-level nodes");
      }
      for (std::uint32_t i = 0; i < len; ++i)
        node("node[" + std::to_string(i) + ']');
      if (!reader_.exhausted()) {
        sink_.report(Severity::kError, "wire.trailing_bytes", -1,
                     "bytes remain after the declared node count");
      }
      return true;
    } catch (const trace::DecodeError& e) {
      sink_.report(Severity::kError, "wire.truncated", -1, e.what());
      return false;
    } catch (const WalkAborted&) {
      return false;
    }
  }

 private:
  [[noreturn]] void fail(std::string code, std::string message) {
    sink_.report(Severity::kError, std::move(code), -1, std::move(message));
    throw WalkAborted{};
  }

  void node(const std::string& path) {
    const std::uint8_t mark = reader_.u8();
    if (mark == kLoopMark) {
      const std::uint64_t iters = reader_.u64();
      if (iters == 0) {
        // Recoverable: the structure is still walkable, keep going so one
        // corrupt trace yields a full report.
        sink_.report(Severity::kError, "rsd.zero_iterations", -1,
                     "loop with zero iterations" + at(path));
      }
      const std::uint32_t len = reader_.u32();
      if (len > kMaxBodyLen) {
        fail("rsd.body_length",
             "loop body length " + std::to_string(len) + " is implausible" +
                 at(path));
      }
      if (len == 0) {
        sink_.report(Severity::kError, "rsd.empty_body", -1,
                     "loop node has an empty body" + at(path));
      }
      for (std::uint32_t i = 0; i < len; ++i)
        node(path + ".body[" + std::to_string(i) + ']');
      return;
    }
    if (mark != kLeafMark) {
      std::ostringstream os;
      os << "unknown node mark 0x" << std::hex << static_cast<int>(mark)
         << at(path);
      fail("wire.bad_mark", os.str());
    }
    leaf(path);
  }

  void leaf(const std::string& path) {
    const std::uint8_t op = reader_.u8();
    if (op > static_cast<std::uint8_t>(sim::Op::kGap)) {
      sink_.report(Severity::kError, "event.bad_op", -1,
                   "invalid operation code " + std::to_string(op) + at(path));
    }
    reader_.u64();  // stack_sig
    endpoint(path);
    endpoint(path);
    reader_.u64();  // bytes
    reader_.i32();  // tag
    const std::uint8_t comm = reader_.u8();
    if (comm != sim::kCommWorld && comm != sim::kCommMarker) {
      sink_.report(Severity::kError, "event.bad_comm", -1,
                   "event on communicator " + std::to_string(comm) + at(path));
    }
    reader_.u8();  // is_marker
    ranklist(path);
    histogram(path);
  }

  void endpoint(const std::string& path) {
    const std::uint8_t kind = reader_.u8();
    if (kind > static_cast<std::uint8_t>(trace::Endpoint::Kind::kAbsolute)) {
      sink_.report(Severity::kError, "event.bad_endpoint", -1,
                   "invalid endpoint kind " + std::to_string(kind) + at(path));
    }
    reader_.i32();  // value
  }

  void ranklist(const std::string& path) {
    // u32 section count, matching serialize.cpp's 64k-rank widening.
    const std::size_t nsections = reader_.u32();
    std::vector<sim::Rank> ranks;
    for (std::size_t s = 0; s < nsections; ++s) {
      trace::RankSection sec;
      sec.start = reader_.i32();
      const std::size_t ndims = reader_.u16();
      if (ndims > 8) {
        fail("ranklist.bad_dims",
             "ranklist section with " + std::to_string(ndims) +
                 " dimensions" + at(path));
      }
      bool expandable = true;
      for (std::size_t d = 0; d < ndims; ++d) {
        const int iters = reader_.i32();
        const int stride = reader_.i32();
        if (iters <= 0) {
          std::ostringstream os;
          os << "ranklist section dimension with " << iters << " iterations"
             << at(path);
          sink_.report(Severity::kError, "ranklist.nonpositive_iters", -1,
                       os.str());
          expandable = false;
          continue;
        }
        sec.dims.push_back({iters, stride});
      }
      if (expandable) sec.expand_into(ranks);
    }
    if (ranks.empty() && nsections == 0) {
      sink_.report(Severity::kError, "ranklist.empty", -1,
                   "event has an empty ranklist" + at(path));
    }
    // "Every source rank covered exactly once": overlapping sections mean
    // a rank is claimed twice by the same event — a merge bug the
    // canonicalizing decoder silently repairs by dedup.
    std::vector<sim::Rank> sorted = ranks;
    std::sort(sorted.begin(), sorted.end());
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    if (dup != sorted.end()) {
      std::ostringstream os;
      os << "ranklist sections overlap: rank " << *dup
         << " is covered more than once" << at(path);
      sink_.report(Severity::kError, "ranklist.overlap", -1, os.str());
    }
    if (opts_.nprocs > 0 && !sorted.empty() &&
        (sorted.front() < 0 || sorted.back() >= opts_.nprocs)) {
      std::ostringstream os;
      os << "ranklist reaches rank " << sorted.back() << " outside world "
         << opts_.nprocs << at(path);
      sink_.report(Severity::kError, "ranklist.out_of_range", -1, os.str());
    }
  }

  void histogram(const std::string& path) {
    std::uint64_t bin_sum = 0;
    for (int i = 0; i < support::Histogram::kBins; ++i) bin_sum += reader_.u64();
    const std::uint64_t count = reader_.u64();
    const double mn = reader_.f64();
    const double mx = reader_.f64();
    const double sum = reader_.f64();
    if (bin_sum != count) {
      std::ostringstream os;
      os << "histogram bins sum to " << bin_sum << " but count is " << count
         << at(path);
      sink_.report(Severity::kError, "histogram.bin_sum", -1, os.str());
    }
    if (count > 0 && mn > mx) {
      std::ostringstream os;
      os << "histogram min " << mn << " exceeds max " << mx << at(path);
      sink_.report(Severity::kError, "histogram.bounds", -1, os.str());
    }
    if (count == 0 && sum != 0.0) {
      std::ostringstream os;
      os << "empty histogram carries total " << sum << at(path);
      sink_.report(Severity::kError, "histogram.empty_sum", -1, os.str());
    }
  }

  trace::ByteReader reader_;
  const LintOptions& opts_;
  DiagnosticSink& sink_;
};

}  // namespace

bool lint_trace_bytes(const std::vector<std::uint8_t>& bytes,
                      const LintOptions& opts, DiagnosticSink& sink) {
  return WireLinter(bytes, opts, sink).run();
}

}  // namespace cham::analysis
