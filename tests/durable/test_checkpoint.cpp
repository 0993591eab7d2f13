// Checkpointer commit/roll protocol and recover() semantics, plus golden
// version-skew images (regenerate with CHAM_REGEN_GOLDEN=1, like the trace
// goldens).
#include "durable/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "durable/wire.hpp"
#include "trace/event.hpp"
#include "trace/serialize.hpp"

#ifndef CHAM_TESTS_DATA_DIR
#error "CHAM_TESTS_DATA_DIR must point at tests/data"
#endif

namespace cham::durable {
namespace {

RunManifest test_manifest() {
  RunManifest m;
  m.workload = "lu";
  m.cls = "S";
  m.timesteps = 4;
  m.procs = 2;
  m.k = 3;
  m.sched_seed = 7;
  m.snapshot_every = 8;
  return m;
}

trace::TraceNode sample_leaf(std::uint64_t stack) {
  trace::EventRecord ev;
  ev.op = sim::Op::kSend;
  ev.stack_sig = stack;
  ev.dest = trace::Endpoint{trace::Endpoint::Kind::kRelative, 1};
  ev.bytes = 64;
  ev.tag = 5;
  ev.ranks = trace::RankList::from_ranks({0, 1});
  return trace::TraceNode::leaf(ev);
}

RankRecord rank_record(std::int32_t rank, std::uint64_t epoch,
                       bool final_epoch = false) {
  RankRecord rec;
  rec.epoch = epoch;
  rec.rank = rank;
  rec.final_epoch = final_epoch;
  rec.protocol.markers_seen = epoch;
  rec.intra_wire = trace::encode_trace({});
  return rec;
}

EpochDelta delta(std::uint64_t epoch, std::vector<std::int32_t> live,
                 bool final_epoch = false) {
  EpochDelta d;
  d.epoch = epoch;
  d.final_epoch = final_epoch;
  d.gaps_wire = trace::encode_trace({});
  d.interval_wire = trace::encode_trace({sample_leaf(0x100 + epoch)});
  d.clusters_wire = {0x01, 0x02};
  d.state_counts = {epoch, 0, 0, 0};
  d.effective_k = 3;
  d.live = std::move(live);
  return d;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::remove((dir + "/manifest.bin").c_str());
  std::remove((dir + "/snapshot.bin").c_str());
  std::remove((dir + "/journal.bin").c_str());
  return dir;
}

void commit_epochs(Checkpointer& cp, std::uint64_t from, std::uint64_t to,
                   bool final_last = false) {
  for (std::uint64_t e = from; e <= to; ++e) {
    const bool fin = final_last && e == to;
    cp.append_rank_record(rank_record(0, e, fin));
    cp.append_rank_record(rank_record(1, e, fin));
    cp.commit_epoch(delta(e, {0, 1}, fin),
                    trace::encode_trace({sample_leaf(0x900)}));
  }
}

TEST(Checkpointer, JournalOnlyRecover) {
  const std::string dir = fresh_dir("ck_journal_only");
  auto cp = Checkpointer::create(dir, test_manifest());
  commit_epochs(*cp, 1, 3);
  EXPECT_EQ(cp->epochs_committed(), 3u);
  EXPECT_EQ(cp->records_appended(), 9u);  // 2 ranks * 3 + 3 deltas
  EXPECT_EQ(cp->snapshots_written(), 0u);
  cp.reset();

  const RecoveredState rec = recover(dir);
  EXPECT_EQ(rec.epoch, 3u);
  EXPECT_EQ(rec.snapshot_epoch, 0u);
  EXPECT_EQ(rec.journal_epochs_replayed, 3u);
  EXPECT_FALSE(rec.finalized);
  EXPECT_FALSE(rec.journal_torn_tail);
  EXPECT_EQ(rec.state_counts[0], 3u);
  EXPECT_EQ(rec.clusters_wire, (std::vector<std::uint8_t>{0x01, 0x02}));
  ASSERT_EQ(rec.ranks.size(), 2u);
  EXPECT_EQ(rec.ranks[0].epoch, 3u);
  // Three one-leaf intervals were appended; the online trace is non-empty.
  EXPECT_FALSE(trace::decode_trace(rec.online_wire).empty());
  EXPECT_EQ(rec.manifest.workload, "lu");
}

TEST(Checkpointer, SnapshotRollAndStaleDeltaSkip) {
  const std::string dir = fresh_dir("ck_roll");
  CheckpointerOptions opts;
  opts.snapshot_every = 2;
  auto cp = Checkpointer::create(dir, test_manifest(), opts);
  commit_epochs(*cp, 1, 5);
  EXPECT_GE(cp->snapshots_written(), 2u);
  cp.reset();
  EXPECT_TRUE(file_exists(dir + "/snapshot.bin"));

  const RecoveredState rec = recover(dir);
  EXPECT_EQ(rec.epoch, 5u);
  EXPECT_GE(rec.snapshot_epoch, 4u);
  // Everything at or before the snapshot must come from the snapshot, not
  // be double-applied from the journal.
  EXPECT_LE(rec.journal_epochs_replayed, 1u);
  EXPECT_EQ(rec.state_counts[0], 5u);
}

TEST(Checkpointer, FinalEpochMarksFinalized) {
  const std::string dir = fresh_dir("ck_final");
  auto cp = Checkpointer::create(dir, test_manifest());
  commit_epochs(*cp, 1, 2, /*final_last=*/true);
  cp.reset();
  const RecoveredState rec = recover(dir);
  EXPECT_TRUE(rec.finalized);
  EXPECT_EQ(rec.epoch, 2u);
}

TEST(Checkpointer, LatestRankRecordServesInRunRestore) {
  const std::string dir = fresh_dir("ck_latest");
  auto cp = Checkpointer::create(dir, test_manifest());
  commit_epochs(*cp, 1, 2);
  const auto rec = cp->latest_rank_record(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 2u);
  EXPECT_FALSE(cp->latest_rank_record(9).has_value());
}

TEST(Checkpointer, AttachContinuesAfterRecovery) {
  const std::string dir = fresh_dir("ck_attach");
  {
    auto cp = Checkpointer::create(dir, test_manifest());
    commit_epochs(*cp, 1, 2);
  }
  const RecoveredState rec = recover(dir);
  {
    // attach() folds the recovery into a fresh snapshot (the old journal
    // may have a torn tail) and keeps appending after rec.epoch.
    auto cp = Checkpointer::attach(dir, rec);
    EXPECT_EQ(cp->latest_rank_record(0)->epoch, 2u);
    commit_epochs(*cp, 3, 3);
  }
  const RecoveredState again = recover(dir);
  EXPECT_EQ(again.epoch, 3u);
  EXPECT_GE(again.snapshot_epoch, 2u);
  EXPECT_EQ(again.state_counts[0], 3u);
}

TEST(Checkpointer, DeltaWithoutRankRecordsIsCorruption) {
  const std::string dir = fresh_dir("ck_orphan_delta");
  {
    auto cp = Checkpointer::create(dir, test_manifest());
    // Violate the commit protocol: a delta for ranks that never journaled.
    cp->commit_epoch(delta(1, {0, 1}), trace::encode_trace({}));
  }
  EXPECT_THROW(recover(dir), trace::DecodeError);
}

TEST(Checkpointer, ForeignArtifactsRejected) {
  // A snapshot sealed under a different manifest digest must not load.
  const std::string dir_a = fresh_dir("ck_foreign_a");
  const std::string dir_b = fresh_dir("ck_foreign_b");
  {
    auto cp = Checkpointer::create(dir_a, test_manifest());
    CheckpointerOptions opts;
    opts.snapshot_every = 1;
    RunManifest other = test_manifest();
    other.sched_seed = 99;  // different run configuration
    auto cp_b = Checkpointer::create(dir_b, other, opts);
    commit_epochs(*cp_b, 1, 1);
  }
  // Splice B's snapshot+journal under A's manifest.
  write_file_sync(dir_a + "/snapshot.bin", read_file(dir_b + "/snapshot.bin"));
  write_file_sync(dir_a + "/journal.bin", read_file(dir_b + "/journal.bin"));
  EXPECT_THROW(recover(dir_a), trace::DecodeError);
}

TEST(Manifest, RoundTripAndDigestStability) {
  const RunManifest m = test_manifest();
  const RunManifest out = decode_manifest(encode_manifest(m));
  EXPECT_EQ(out.workload, m.workload);
  EXPECT_EQ(out.cls, m.cls);
  EXPECT_EQ(out.procs, m.procs);
  EXPECT_EQ(out.sched_seed, m.sched_seed);
  EXPECT_EQ(out.digest(), m.digest());
  RunManifest other = m;
  other.fault_plan = "crash rank=3 marker=4";
  EXPECT_NE(other.digest(), m.digest());
}

/// A sealed manifest image in the encoder's field order, with the fold
/// window and degrade fraction as given.
std::vector<std::uint8_t> manifest_image(std::int32_t fold_window,
                                         double degrade_fraction) {
  const RunManifest m = test_manifest();
  trace::ByteWriter w;
  put_string(w, m.workload);
  put_string(w, m.cls);
  w.i32(m.timesteps);
  w.i32(m.procs);
  w.u64(m.k);
  w.i32(m.call_frequency);
  w.i32(fold_window);
  w.u8(m.policy);
  w.u64(m.seed);
  w.f64(degrade_fraction);
  w.u8(m.auto_marker ? 1 : 0);
  put_string(w, m.fault_plan);
  w.u64(m.fault_seed);
  w.u64(m.sched_seed);
  w.i32(m.snapshot_every);
  return seal(kManifestMagic, kManifestVersion, 0, w.take());
}

TEST(Manifest, FoldWindowAndDegradeFractionArePinned) {
  // The image stores the program's constants...
  EXPECT_EQ(encode_manifest(test_manifest()), manifest_image(32, 0.5));
  // ...and a manifest from outside the program holding other values is
  // corrupt input, not a configuration to run.
  EXPECT_THROW(decode_manifest(manifest_image(16, 0.5)), trace::DecodeError);
  EXPECT_THROW(decode_manifest(manifest_image(32, 0.75)), trace::DecodeError);
  const std::string dir = fresh_dir("manifest_pinned");
  std::filesystem::create_directories(dir);
  write_file_sync(dir + "/manifest.bin", manifest_image(64, 0.5));
  EXPECT_THROW(recover(dir), trace::DecodeError);
}

// --- golden version-skew images -------------------------------------------

constexpr std::uint64_t kGoldenDigest = 0xC0DEC0DEull;

std::string golden_path(const std::string& name) {
  return std::string(CHAM_TESTS_DATA_DIR) + "/" + name;
}

std::vector<std::uint8_t> read_golden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

ProtocolSnapshot golden_snapshot() {
  ProtocolSnapshot snap;
  snap.epoch = 4;
  snap.online_wire = trace::encode_trace({sample_leaf(0xAB)});
  snap.clusters_wire = {0x11, 0x22};
  snap.state_counts = {2, 1, 1, 0};
  snap.effective_k = 3;
  snap.num_callpaths = 2;
  snap.gap_ranks = {5};
  snap.sites = {{0x123, "phase.steady"}};
  RankRecord rec;
  rec.epoch = 4;
  rec.rank = 0;
  rec.intra_wire = trace::encode_trace({});
  snap.ranks = {rec};
  return snap;
}

/// The committed goldens: a valid v1 snapshot, the same payload sealed as a
/// (fictitious) future version, and the v1 image with one payload byte
/// flipped. A format change invalidates the goldens loudly — regenerate
/// with CHAM_REGEN_GOLDEN=1 and review the diff like code.
TEST(GoldenSkew, ImagesMatchAndSkewIsRejected) {
  const std::string good = golden_path("durable_snapshot_v1.golden.bin");
  const std::string future = golden_path("durable_snapshot_future.golden.bin");
  const std::string badsum = golden_path("durable_snapshot_badsum.golden.bin");

  if (std::getenv("CHAM_REGEN_GOLDEN") != nullptr) {
    const auto image = encode_snapshot(golden_snapshot(), kGoldenDigest);
    const Envelope env =
        unseal(kSnapshotMagic, kSnapshotVersion, kGoldenDigest, image, "s");
    const auto future_image =
        seal(kSnapshotMagic, kSnapshotVersion + 1, kGoldenDigest, env.payload);
    auto bad_image = image;
    bad_image[bad_image.size() / 2] ^= 0x01;
    write_file_sync(good, image);
    write_file_sync(future, future_image);
    write_file_sync(badsum, bad_image);
    GTEST_SKIP() << "regenerated golden images";
  }

  const auto good_image = read_golden(good);
  ASSERT_FALSE(good_image.empty()) << "missing golden " << good;
  // Byte-stability: today's encoder must reproduce the committed image.
  EXPECT_EQ(encode_snapshot(golden_snapshot(), kGoldenDigest), good_image);
  const ProtocolSnapshot snap = decode_snapshot(good_image, kGoldenDigest);
  EXPECT_EQ(snap.epoch, 4u);
  EXPECT_EQ(snap.gap_ranks, std::vector<std::int32_t>{5});
  ASSERT_EQ(snap.sites.size(), 1u);
  EXPECT_EQ(snap.sites[0].second, "phase.steady");

  const auto future_image = read_golden(future);
  ASSERT_FALSE(future_image.empty()) << "missing golden " << future;
  try {
    decode_snapshot(future_image, kGoldenDigest);
    FAIL() << "future-versioned snapshot accepted";
  } catch (const trace::DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version"),
              std::string::npos)
        << e.what();
  }

  const auto bad_image = read_golden(badsum);
  ASSERT_FALSE(bad_image.empty()) << "missing golden " << badsum;
  EXPECT_THROW(decode_snapshot(bad_image, kGoldenDigest), trace::DecodeError);
}

}  // namespace
}  // namespace cham::durable
