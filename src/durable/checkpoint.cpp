#include "durable/checkpoint.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <system_error>

#include "analysis/race/annotate.hpp"
#include "core/config.hpp"
#include "durable/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "support/hash.hpp"
#include "trace/callsite.hpp"
#include "trace/merge.hpp"
#include "trace/rsd.hpp"
#include "trace/serialize.hpp"

namespace cham::durable {

namespace {

constexpr const char* kManifestFile = "/manifest.bin";
constexpr const char* kSnapshotFile = "/snapshot.bin";
constexpr const char* kJournalFile = "/journal.bin";

void ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw std::system_error(errno, std::generic_category(), "mkdir: " + dir);
}

void count(std::string_view name, std::uint64_t delta = 1) {
  if (auto* m = obs::metrics()) m->add_counter(name, {}, delta);
}

}  // namespace

std::vector<std::uint8_t> encode_manifest(const RunManifest& m) {
  trace::ByteWriter w;
  put_string(w, m.workload);
  put_string(w, m.cls);
  w.i32(m.timesteps);
  w.i32(m.procs);
  w.u64(m.k);
  w.i32(m.call_frequency);
  w.i32(trace::kMaxWindow);
  w.u8(m.policy);
  w.u64(m.seed);
  w.f64(core::kDegradeFraction);
  w.u8(m.auto_marker ? 1 : 0);
  put_string(w, m.fault_plan);
  w.u64(m.fault_seed);
  w.u64(m.sched_seed);
  w.i32(m.snapshot_every);
  // The manifest digest pins artifacts to one run configuration, so seal
  // its own envelope with digest 0 (the digest covers this payload).
  return seal(kManifestMagic, kManifestVersion, 0, w.take());
}

RunManifest decode_manifest(const std::vector<std::uint8_t>& bytes) {
  const Envelope env = unseal(kManifestMagic, kManifestVersion, 0, bytes,
                              "manifest");
  trace::ByteReader r(env.payload);
  RunManifest m;
  m.workload = get_string(r);
  m.cls = get_string(r);
  m.timesteps = r.i32();
  m.procs = r.i32();
  m.k = r.u64();
  m.call_frequency = r.i32();
  if (r.i32() != trace::kMaxWindow)
    throw trace::DecodeError("manifest fold window is not the tracer's");
  m.policy = r.u8();
  m.seed = r.u64();
  if (r.f64() != core::kDegradeFraction)
    throw trace::DecodeError("manifest degrade fraction is not the tool's");
  m.auto_marker = r.u8() != 0;
  m.fault_plan = get_string(r);
  m.fault_seed = r.u64();
  m.sched_seed = r.u64();
  m.snapshot_every = r.i32();
  if (!r.exhausted())
    throw trace::DecodeError("manifest has trailing bytes");
  return m;
}

std::uint64_t RunManifest::digest() const {
  const auto sealed = encode_manifest(*this);
  // Hash the payload portion only (skip the envelope header) so the digest
  // is a pure function of the configuration, not of envelope framing.
  const std::uint64_t h = support::fnv1a64(sealed.data(), sealed.size());
  // Digest 0 is the "don't check" sentinel in unseal(); avoid producing it.
  return h == 0 ? 1 : h;
}

// --- recovery --------------------------------------------------------------

RecoveredState recover(const std::string& dir) {
  RecoveredState out;
  out.manifest = decode_manifest(read_file(dir + kManifestFile));
  const std::uint64_t digest = out.manifest.digest();

  std::vector<trace::TraceNode> online;
  if (file_exists(dir + kSnapshotFile)) {
    const ProtocolSnapshot snap =
        decode_snapshot(read_file(dir + kSnapshotFile), digest);
    out.epoch = out.snapshot_epoch = snap.epoch;
    out.finalized = snap.finalized;
    online = trace::decode_trace(snap.online_wire);
    out.clusters_wire = snap.clusters_wire;
    out.state_counts = snap.state_counts;
    out.effective_k = snap.effective_k;
    out.num_callpaths = snap.num_callpaths;
    out.gap_ranks = snap.gap_ranks;
    out.sites = snap.sites;
    out.ranks = snap.ranks;
  }

  if (!file_exists(dir + kJournalFile)) {
    out.online_wire = trace::encode_trace(online);
    return out;
  }
  const JournalImage journal = parse_journal(read_file(dir + kJournalFile), digest);
  out.journal_torn_tail = journal.torn_tail;

  // Replay committed epochs in file order. Rank records accumulate in
  // `pending`; a delta frame commits the epoch iff every participating rank
  // has a matching record (the pre-delta barrier guarantees this on any
  // crash — only corruption can violate it).
  std::map<std::int32_t, RankRecord> pending;
  std::set<std::int32_t> gaps(out.gap_ranks.begin(), out.gap_ranks.end());
  for (const JournalRecord& rec : journal.records) {
    if (rec.type == RecordType::kRankRecord) {
      trace::ByteReader rr_reader(rec.payload);
      RankRecord rr = decode_rank_record(rr_reader);
      if (!rr_reader.exhausted())
        throw trace::DecodeError("journal: rank record has trailing bytes");
      pending.insert_or_assign(rr.rank, std::move(rr));
      continue;
    }
    const EpochDelta delta = decode_epoch_delta(rec.payload);
    // Epochs at or before the snapshot are already folded in; they linger
    // only when a crash hit between the snapshot rename and journal swap.
    if (delta.epoch <= out.snapshot_epoch &&
        !(delta.final_epoch && !out.finalized))
      continue;
    for (const std::int32_t rank : delta.live) {
      const auto it = pending.find(rank);
      if (it == pending.end() || it->second.epoch != delta.epoch ||
          it->second.final_epoch != delta.final_epoch)
        throw trace::DecodeError(
            "journal: epoch delta without matching rank records");
    }
    const auto gap_nodes = trace::decode_trace(delta.gaps_wire);
    for (const auto& node : gap_nodes) online.push_back(node);
    for (const auto& node : gap_nodes)
      if (node.event.op == sim::Op::kGap)
        gaps.insert(static_cast<std::int32_t>(node.event.tag));
    // The interval image is raw staging — empty (0 bytes, not an encoded
    // empty trace) on epochs without a lead merge.
    if (!delta.interval_wire.empty())
      trace::append_online(online, trace::decode_trace(delta.interval_wire));
    out.clusters_wire = delta.clusters_wire;
    out.state_counts = delta.state_counts;
    out.effective_k = delta.effective_k;
    out.num_callpaths = delta.num_callpaths;
    out.epoch = delta.epoch;
    out.finalized = delta.final_epoch;
    out.ranks.clear();
    for (const std::int32_t rank : delta.live) out.ranks.push_back(pending.at(rank));
    ++out.journal_epochs_replayed;
  }
  out.gap_ranks.assign(gaps.begin(), gaps.end());
  out.online_wire = trace::encode_trace(online);
  return out;
}

// --- Checkpointer ----------------------------------------------------------

struct Checkpointer::Impl {
  std::string dir;
  RunManifest manifest;
  std::uint64_t digest = 0;
  CheckpointerOptions opts;
  JournalWriter journal;

  mutable std::mutex mu;
  std::map<std::int32_t, RankRecord> latest;  // newest record per rank
  std::set<std::int32_t> gap_ranks;           // cumulative mourned leads
  std::vector<std::pair<std::uint64_t, std::string>> sites_base;
  std::uint64_t epochs_committed = 0;
  std::uint64_t snapshot_epoch = 0;  // epoch covered by snapshot.bin
  bool snapshot_finalized = false;
  std::uint64_t snapshots = 0;
  std::uint64_t records = 0;

  void roll_snapshot(const EpochDelta& delta,
                     const std::vector<std::uint8_t>& online_wire) {
    ProtocolSnapshot snap;
    snap.epoch = delta.epoch;
    snap.finalized = delta.final_epoch;
    snap.online_wire = online_wire;
    snap.clusters_wire = delta.clusters_wire;
    snap.state_counts = delta.state_counts;
    snap.effective_k = delta.effective_k;
    snap.num_callpaths = delta.num_callpaths;
    snap.gap_ranks.assign(gap_ranks.begin(), gap_ranks.end());
    snap.sites = trace::export_sites();
    snap.ranks.reserve(delta.live.size());
    for (const std::int32_t rank : delta.live) {
      const auto it = latest.find(rank);
      if (it != latest.end()) snap.ranks.push_back(it->second);
    }
    // Publish the snapshot first, then swap in an empty journal. A crash
    // between the two leaves stale deltas (epoch <= snapshot) in the
    // journal; recover() skips them, so the window is benign.
    write_file_atomic(dir + kSnapshotFile, encode_snapshot(snap, digest));
    journal.close();
    const std::string fresh = dir + kJournalFile + std::string(".new");
    {
      JournalWriter next;
      next.create(fresh, digest);
    }
    write_file_atomic_rename(fresh, dir + kJournalFile);
    journal.open_append(dir + kJournalFile);
    snapshot_epoch = delta.epoch;
    snapshot_finalized = delta.final_epoch;
    ++snapshots;
    count("cham.durable.snapshots");
    if (auto* tl = obs::timeline())
      tl->instant(obs::Timeline::kSchedulerTid, "durable.snapshot", "durable",
                  {obs::arg_int("epoch", static_cast<std::int64_t>(delta.epoch))});
  }

  static void write_file_atomic_rename(const std::string& from,
                                       const std::string& to);
};

void Checkpointer::Impl::write_file_atomic_rename(const std::string& from,
                                                  const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0)
    throw std::system_error(errno, std::generic_category(),
                            "rename: " + from + " -> " + to);
  // Make the rename durable: without this, post-snapshot journal appends
  // could land in an inode the directory no longer references after a crash.
  const auto slash = to.find_last_of('/');
  fsync_dir(slash == std::string::npos ? "." : to.substr(0, slash));
}

Checkpointer::Checkpointer() : impl_(new Impl) {}
Checkpointer::~Checkpointer() = default;

std::unique_ptr<Checkpointer> Checkpointer::create(const std::string& dir,
                                                   const RunManifest& manifest,
                                                   CheckpointerOptions opts) {
  ensure_dir(dir);
  std::unique_ptr<Checkpointer> cp(new Checkpointer);
  Impl& im = *cp->impl_;
  im.dir = dir;
  im.manifest = manifest;
  im.digest = manifest.digest();
  im.opts = opts;
  if (im.opts.snapshot_every < 1) im.opts.snapshot_every = 1;
  write_file_atomic(dir + kManifestFile, encode_manifest(manifest));
  im.journal.create(dir + kJournalFile, im.digest);
  return cp;
}

std::unique_ptr<Checkpointer> Checkpointer::attach(
    const std::string& dir, const RecoveredState& recovered,
    CheckpointerOptions opts) {
  std::unique_ptr<Checkpointer> cp(new Checkpointer);
  Impl& im = *cp->impl_;
  im.dir = dir;
  im.manifest = recovered.manifest;
  im.digest = recovered.manifest.digest();
  im.opts = opts;
  if (im.opts.snapshot_every < 1) im.opts.snapshot_every = 1;
  im.snapshot_epoch = recovered.snapshot_epoch;
  im.epochs_committed = recovered.epoch;
  trace::import_sites(recovered.sites);
  im.gap_ranks.insert(recovered.gap_ranks.begin(), recovered.gap_ranks.end());
  for (const RankRecord& rec : recovered.ranks)
    im.latest.insert_or_assign(rec.rank, rec);
  // Fold the replayed journal into a fresh snapshot immediately: the old
  // journal's tail may be torn, and appending after a torn frame would
  // corrupt it for the *next* recovery.
  EpochDelta base;
  base.epoch = recovered.epoch;
  base.final_epoch = recovered.finalized;
  base.clusters_wire = recovered.clusters_wire;
  base.state_counts = recovered.state_counts;
  base.effective_k = recovered.effective_k;
  base.num_callpaths = recovered.num_callpaths;
  for (const RankRecord& rec : recovered.ranks) base.live.push_back(rec.rank);
  im.roll_snapshot(base, recovered.online_wire);
  return cp;
}

void Checkpointer::append_rank_record(const RankRecord& record) {
  Impl& im = *impl_;
  RACE_ATOMIC("durable.journal", 0, 0);
  const std::lock_guard<std::mutex> lock(im.mu);
  im.journal.append(RecordType::kRankRecord,
                    [&] {
                      trace::ByteWriter w;
                      encode_rank_record(w, record);
                      return w.take();
                    }());
  im.latest.insert_or_assign(record.rank, record);
  ++im.records;
  count("cham.durable.rank_records");
}

void Checkpointer::commit_epoch(const EpochDelta& delta,
                                const std::vector<std::uint8_t>& online_wire) {
  Impl& im = *impl_;
  RACE_ATOMIC("durable.journal", 0, 0);
  const std::lock_guard<std::mutex> lock(im.mu);
  const auto gap_nodes = trace::decode_trace(delta.gaps_wire);
  for (const auto& node : gap_nodes)
    if (node.event.op == sim::Op::kGap)
      im.gap_ranks.insert(static_cast<std::int32_t>(node.event.tag));
  im.journal.append(RecordType::kEpochDelta, encode_epoch_delta(delta));
  im.journal.sync();  // commit point: the epoch is now durable
  im.epochs_committed = delta.epoch;
  ++im.records;
  count("cham.durable.commits");
  if (auto* tl = obs::timeline())
    tl->instant(obs::Timeline::kSchedulerTid, "durable.commit", "durable",
                {obs::arg_int("epoch", static_cast<std::int64_t>(delta.epoch))});

  const bool due = delta.final_epoch ||
                   (delta.epoch >= im.snapshot_epoch +
                                       static_cast<std::uint64_t>(im.opts.snapshot_every));
  if (due) im.roll_snapshot(delta, online_wire);

  if (im.opts.kill_after_epoch != 0 &&
      delta.epoch >= im.opts.kill_after_epoch && !delta.final_epoch) {
    // Test hook: die exactly like a power cut, with epoch `delta.epoch`
    // durable and nothing of the next epoch written.
    std::raise(SIGKILL);
  }
}

std::optional<RankRecord> Checkpointer::latest_rank_record(
    std::int32_t rank) const {
  const Impl& im = *impl_;
  RACE_ATOMIC("durable.journal", 0, 0);
  const std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.latest.find(rank);
  if (it == im.latest.end()) return std::nullopt;
  return it->second;
}

const RunManifest& Checkpointer::manifest() const { return impl_->manifest; }

std::uint64_t Checkpointer::epochs_committed() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->epochs_committed;
}
std::uint64_t Checkpointer::snapshots_written() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->snapshots;
}
std::uint64_t Checkpointer::records_appended() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->records;
}
std::uint64_t Checkpointer::fsyncs() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->journal.syncs();
}

}  // namespace cham::durable
