// Snapshot/journal wire formats: roundtrips, the torn-tail contract, and
// typed rejection of every other inconsistency.
#include "durable/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "durable/wire.hpp"
#include "trace/serialize.hpp"

namespace cham::durable {
namespace {

RankRecord sample_record(std::int32_t rank, std::uint64_t epoch) {
  RankRecord rec;
  rec.epoch = epoch;
  rec.rank = rank;
  rec.final_epoch = false;
  rec.storing = rank != 2;
  rec.protocol.first_marker = (rank % 2) == 0;
  rec.protocol.reclustering = (rank % 3) == 0;
  rec.protocol.lead_phase = rank == 1;
  rec.protocol.old_callpath = 0xC0FFEEull + static_cast<std::uint64_t>(rank);
  rec.protocol.markers_seen = epoch * 2;
  rec.protocol.auto_site = rank == 0 ? 0x5EED : 0;
  rec.intra_wire = {0x01, 0x02, 0x03, static_cast<std::uint8_t>(rank)};
  return rec;
}

EpochDelta sample_delta(std::uint64_t epoch) {
  EpochDelta d;
  d.epoch = epoch;
  d.final_epoch = false;
  d.state = 2;
  d.action = 1;
  d.gaps_wire = {0x00, 0x00, 0x00, 0x00};
  d.interval_wire = {0xAA, 0xBB};
  d.clusters_wire = {0x10, 0x20, 0x30};
  d.state_counts = {epoch, 1, 2, 0};
  d.effective_k = 3;
  d.num_callpaths = 2;
  d.live = {0, 1, 2, 3};
  return d;
}

TEST(RankRecordWire, RoundTripAllFlagCombinations) {
  for (int bits = 0; bits < 32; ++bits) {
    RankRecord rec = sample_record(7, 9);
    rec.final_epoch = (bits & 1) != 0;
    rec.protocol.first_marker = (bits & 2) != 0;
    rec.protocol.reclustering = (bits & 4) != 0;
    rec.protocol.lead_phase = (bits & 8) != 0;
    rec.storing = (bits & 16) != 0;
    trace::ByteWriter w;
    encode_rank_record(w, rec);
    const auto buf = w.take();
    trace::ByteReader r(buf);
    const RankRecord out = decode_rank_record(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(out.final_epoch, rec.final_epoch);
    EXPECT_EQ(out.protocol.first_marker, rec.protocol.first_marker);
    EXPECT_EQ(out.protocol.reclustering, rec.protocol.reclustering);
    EXPECT_EQ(out.protocol.lead_phase, rec.protocol.lead_phase);
    EXPECT_EQ(out.storing, rec.storing);
    EXPECT_EQ(out.epoch, rec.epoch);
    EXPECT_EQ(out.rank, rec.rank);
    EXPECT_EQ(out.protocol.old_callpath, rec.protocol.old_callpath);
    EXPECT_EQ(out.protocol.markers_seen, rec.protocol.markers_seen);
    EXPECT_EQ(out.protocol.auto_site, rec.protocol.auto_site);
    EXPECT_EQ(out.intra_wire, rec.intra_wire);
  }
}

TEST(EpochDeltaWire, RoundTrip) {
  const EpochDelta d = sample_delta(5);
  const EpochDelta out = decode_epoch_delta(encode_epoch_delta(d));
  EXPECT_EQ(out.epoch, d.epoch);
  EXPECT_EQ(out.final_epoch, d.final_epoch);
  EXPECT_EQ(out.state, d.state);
  EXPECT_EQ(out.action, d.action);
  EXPECT_EQ(out.gaps_wire, d.gaps_wire);
  EXPECT_EQ(out.interval_wire, d.interval_wire);
  EXPECT_EQ(out.clusters_wire, d.clusters_wire);
  EXPECT_EQ(out.state_counts, d.state_counts);
  EXPECT_EQ(out.effective_k, d.effective_k);
  EXPECT_EQ(out.num_callpaths, d.num_callpaths);
  EXPECT_EQ(out.live, d.live);
}

TEST(EpochDeltaWire, TrailingBytesRejected) {
  auto bytes = encode_epoch_delta(sample_delta(5));
  bytes.push_back(0x00);
  EXPECT_THROW(decode_epoch_delta(bytes), trace::DecodeError);
}

std::vector<std::uint8_t> journal_image(std::uint64_t digest, int epochs) {
  std::vector<std::uint8_t> image = journal_header(digest);
  for (int e = 1; e <= epochs; ++e) {
    for (std::int32_t r = 0; r < 4; ++r) {
      trace::ByteWriter w;
      encode_rank_record(w, sample_record(r, static_cast<std::uint64_t>(e)));
      const auto frame = frame_record(RecordType::kRankRecord, w.take());
      image.insert(image.end(), frame.begin(), frame.end());
    }
    const auto frame = frame_record(
        RecordType::kEpochDelta,
        encode_epoch_delta(sample_delta(static_cast<std::uint64_t>(e))));
    image.insert(image.end(), frame.begin(), frame.end());
  }
  return image;
}

TEST(Journal, ParseRoundTrip) {
  const auto image = journal_image(0x77, 2);
  const JournalImage parsed = parse_journal(image, 0x77);
  EXPECT_EQ(parsed.version, kJournalVersion);
  EXPECT_EQ(parsed.config_digest, 0x77u);
  EXPECT_FALSE(parsed.torn_tail);
  ASSERT_EQ(parsed.records.size(), 10u);  // (4 records + 1 delta) * 2
  EXPECT_EQ(parsed.records[4].type, RecordType::kEpochDelta);
  EXPECT_EQ(parsed.records[9].type, RecordType::kEpochDelta);
}

TEST(Journal, EveryTruncationIsTornTailOrShorterPrefix) {
  // Cutting a journal anywhere past the header must never throw: the
  // complete frames before the cut parse, the torn frame is dropped and
  // reported. This is exactly what a SIGKILL mid-append leaves behind.
  const auto image = journal_image(0x77, 2);
  const std::size_t header = journal_header(0x77).size();
  std::size_t torn_count = 0;
  for (std::size_t keep = header; keep < image.size(); ++keep) {
    const std::vector<std::uint8_t> cut(image.begin(), image.begin() + keep);
    const JournalImage parsed = parse_journal(cut, 0x77);
    EXPECT_LE(parsed.records.size(), 10u);
    if (parsed.torn_tail) ++torn_count;
    if (keep == image.size() - 1) {
      EXPECT_TRUE(parsed.torn_tail);
    }
  }
  EXPECT_GT(torn_count, 0u);
}

TEST(Journal, HeaderTruncationRejected) {
  const auto header = journal_header(0x77);
  for (std::size_t keep = 0; keep < header.size(); ++keep) {
    const std::vector<std::uint8_t> cut(header.begin(),
                                        header.begin() + keep);
    EXPECT_THROW(parse_journal(cut, 0x77), trace::DecodeError);
  }
}

TEST(Journal, MidFilePayloadFlipRejected) {
  auto image = journal_image(0x77, 2);
  // Flip a byte inside the first frame's payload: checksum mismatch, and
  // because complete frames follow it this is corruption, not a torn tail.
  image[journal_header(0x77).size() + 24] ^= 0x01;
  EXPECT_THROW(parse_journal(image, 0x77), trace::DecodeError);
}

TEST(Journal, WrongDigestRejected) {
  const auto image = journal_image(0x77, 1);
  EXPECT_THROW(parse_journal(image, 0x78), trace::DecodeError);
  EXPECT_NO_THROW(parse_journal(image, 0));  // 0 = don't pin
}

TEST(Journal, UnknownRecordTypeRejected) {
  auto image = journal_header(0x77);
  auto frame = frame_record(RecordType::kRankRecord, {0x01});
  // Type byte sits right after the 4-byte frame magic; forging it breaks
  // the checksum too, so rebuild the frame through the public API with a
  // casted bogus type instead.
  frame = frame_record(static_cast<RecordType>(9), {0x01});
  image.insert(image.end(), frame.begin(), frame.end());
  EXPECT_THROW(parse_journal(image, 0x77), trace::DecodeError);
}

TEST(JournalWriter, AppendReopenParse) {
  const std::string path = testing::TempDir() + "/durable_test_journal.bin";
  {
    JournalWriter w;
    w.create(path, 0x42);
    trace::ByteWriter rw;
    encode_rank_record(rw, sample_record(0, 1));
    w.append(RecordType::kRankRecord, rw.take());
    w.sync();
    EXPECT_EQ(w.syncs(), 2u);  // header + explicit sync
    w.close();
  }
  {
    JournalWriter w;
    w.open_append(path);
    w.append(RecordType::kEpochDelta, encode_epoch_delta(sample_delta(1)));
    w.sync();
    w.close();
  }
  const JournalImage parsed = parse_journal(read_file(path), 0x42);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[0].type, RecordType::kRankRecord);
  EXPECT_EQ(parsed.records[1].type, RecordType::kEpochDelta);
  EXPECT_FALSE(parsed.torn_tail);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cham::durable
