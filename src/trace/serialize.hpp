// Binary trace (de)serialization.
//
// The wire format is what ranks ship up the radix tree during inter-node
// compression and what gets written as the final global trace file. It is
// exact: decode(encode(x)) reproduces x including ranklists (in factored
// section form) and delta-time histograms.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace cham::trace {

class ByteWriter {
 public:
  /// Pre-size the buffer (encoded_size_hint) so encoding a trace performs
  /// one allocation instead of a geometric growth series.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void bytes(const std::uint8_t* data, std::size_t len);

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }

  /// Copy out `n` raw bytes (bounds-checked; throws DecodeError short).
  std::vector<std::uint8_t> raw(std::size_t n);

  /// Bytes left to read. Decoders bound every length-prefixed allocation by
  /// this (each deferred element still occupies a known minimum encoding),
  /// so a hostile length field throws DecodeError before reserving memory.
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t n) const;
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

/// Thrown on malformed input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void encode_ranklist(ByteWriter& w, const RankList& ranks);
RankList decode_ranklist(ByteReader& r);

/// Standalone, versioned ranklist image (golden-file format): a one-byte
/// format version followed by the section encoding. Decode rejects images
/// from future versions and trailing bytes.
std::vector<std::uint8_t> encode_ranklist_image(const RankList& ranks);
RankList decode_ranklist_image(const std::vector<std::uint8_t>& bytes);

/// Exact encoded sizes, used to reserve() writer buffers up front.
std::size_t encoded_size_hint(const RankList& ranks);
std::size_t encoded_size_hint(const TraceNode& node);
std::size_t encoded_size_hint(const std::vector<TraceNode>& nodes);

void encode_node(ByteWriter& w, const TraceNode& node);
TraceNode decode_node(ByteReader& r);

std::vector<std::uint8_t> encode_trace(const std::vector<TraceNode>& nodes);
std::vector<TraceNode> decode_trace(const std::vector<std::uint8_t>& bytes);

/// Schedule-invariant projection of the wire image: identical to
/// encode_trace except that each delta-time histogram contributes only its
/// sample count. The measured seconds (and the bin layout derived from
/// their range) come from the charged form of ToolSection, which bills
/// *host* CPU time into the virtual clock, so they legitimately differ run
/// to run even for the same schedule. The determinism audit digests this projection; everything
/// it keeps — structure, call sites, endpoints, ranklists, sample counts —
/// must be identical across scheduler seeds. Not decodable.
std::vector<std::uint8_t> encode_trace_structure(
    const std::vector<TraceNode>& nodes);

}  // namespace cham::trace
