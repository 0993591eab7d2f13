#include "trace/serialize.hpp"

#include <cstring>

namespace cham::trace {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::bytes(const std::uint8_t* data, std::size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > buf_.size()) throw DecodeError("trace buffer truncated");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return buf_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v |= static_cast<std::uint16_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::vector<std::uint8_t> ByteReader::raw(std::size_t n) {
  need(n);
  std::vector<std::uint8_t> out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void encode_ranklist(ByteWriter& w, const RankList& ranks) {
  const auto sections = ranks.sections();
  // u32 section count: at 64k+ ranks an irregular member set can factor
  // into more than 65535 sections (the member cap admits up to 2^23 runs),
  // so the old u16 field could silently truncate.
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& sec : sections) {
    w.i32(sec.start);
    w.u16(static_cast<std::uint16_t>(sec.dims.size()));
    for (const auto& [iters, stride] : sec.dims) {
      w.i32(iters);
      w.i32(stride);
    }
  }
}

namespace {

/// Ceiling on the member count any single decoded ranklist may expand to.
/// Generous for the 64k-rank roadmap scale, but small enough that a hostile
/// <iters> product cannot balloon the expansion vector: decode throws before
/// allocating past it.
constexpr std::uint64_t kMaxDecodedRanks = 1ull << 24;

/// Minimum encoded sizes, used to bound length-prefixed element counts by
/// the bytes actually left in the buffer.
constexpr std::size_t kMinSectionBytes = 4 + 2;       // start + ndims
constexpr std::size_t kMinNodeBytes = 1 + 8 + 4;      // empty loop node

}  // namespace

namespace {

/// Map decoded sections straight to runs when they have the shape our
/// encoder emits (<=2 dims, positive strides, ascending disjoint order):
/// a 1-D section is one run, a 2-D section is `outer` runs. Keeps the
/// decode O(runs) — critical when every rank decodes the broadcast cluster
/// table, where member-level expansion is O(world) per ranklist. Returns
/// false (leaving `runs` unusable) for legacy/hostile shapes; the caller
/// falls back to the exact member expansion.
bool runs_from_sections(const std::vector<RankSection>& sections,
                        std::vector<RankRun>& runs) {
  sim::Rank prev_end = -1;
  bool first = true;
  const auto add = [&](sim::Rank start, int len, int stride) {
    if (len < 1 || (len > 1 && stride < 1)) return false;
    if (!first && start <= prev_end) return false;
    first = false;
    prev_end = start + (len - 1) * (len > 1 ? stride : 1);
    runs.push_back({start, len, len > 1 ? stride : 1});
    return true;
  };
  for (const auto& sec : sections) {
    switch (sec.dims.size()) {
      case 0:
        if (!add(sec.start, 1, 1)) return false;
        break;
      case 1:
        if (!add(sec.start, sec.dims[0].first, sec.dims[0].second))
          return false;
        break;
      case 2: {
        const auto [outer_iters, outer_stride] = sec.dims[0];
        const auto [len, stride] = sec.dims[1];
        if (outer_iters < 1 || outer_stride < 1) return false;
        for (int g = 0; g < outer_iters; ++g)
          if (!add(sec.start + g * outer_stride, len, stride)) return false;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

}  // namespace

RankList decode_ranklist(ByteReader& r) {
  const std::size_t nsections = r.u32();
  if (nsections > r.remaining() / kMinSectionBytes)
    throw DecodeError("ranklist section count exceeds buffer");
  std::vector<RankSection> sections;
  sections.reserve(nsections);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < nsections; ++s) {
    RankSection sec;
    sec.start = r.i32();
    const std::size_t ndims = r.u16();
    if (ndims > 8) throw DecodeError("ranklist dimension count implausible");
    std::uint64_t expanded = 1;
    for (std::size_t d = 0; d < ndims; ++d) {
      const int iters = r.i32();
      const int stride = r.i32();
      if (iters <= 0) throw DecodeError("non-positive ranklist iteration");
      expanded *= static_cast<std::uint64_t>(iters);
      if (expanded > kMaxDecodedRanks)
        throw DecodeError("ranklist expansion exceeds member cap");
      sec.dims.push_back({iters, stride});
    }
    total += expanded;
    if (total > kMaxDecodedRanks)
      throw DecodeError("ranklist expansion exceeds member cap");
    sections.push_back(std::move(sec));
  }
  std::vector<RankRun> runs;
  if (runs_from_sections(sections, runs))
    return RankList::from_runs(std::move(runs));
  // Legacy or hostile shapes the run path refuses: expand exactly.
  std::vector<sim::Rank> ranks;
  ranks.reserve(total);
  for (const auto& sec : sections) sec.expand_into(ranks);
  return RankList::from_ranks(std::move(ranks));
}

namespace {

/// Version byte leading a standalone ranklist image. Bump on any change to
/// the section wire layout; decode rejects anything newer.
constexpr std::uint8_t kRankListImageVersion = 1;

}  // namespace

std::vector<std::uint8_t> encode_ranklist_image(const RankList& ranks) {
  ByteWriter w;
  w.reserve(1 + encoded_size_hint(ranks));
  w.u8(kRankListImageVersion);
  encode_ranklist(w, ranks);
  return w.take();
}

RankList decode_ranklist_image(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::uint8_t version = r.u8();
  if (version > kRankListImageVersion)
    throw DecodeError("ranklist image from a newer format version");
  RankList ranks = decode_ranklist(r);
  if (!r.exhausted()) throw DecodeError("trailing bytes after ranklist image");
  return ranks;
}

std::size_t encoded_size_hint(const RankList& ranks) {
  std::size_t n = 4;
  for (const auto& sec : ranks.sections()) n += 4 + 2 + 8 * sec.dims.size();
  return n;
}

std::size_t encoded_size_hint(const TraceNode& node) {
  if (node.is_loop()) {
    std::size_t n = 1 + 8 + 4;
    for (const auto& child : node.body) n += encoded_size_hint(child);
    return n;
  }
  // mark + op + stack + 2 endpoints + bytes + tag + comm + marker flag
  constexpr std::size_t kLeafFixed = 1 + 1 + 8 + 2 * 5 + 8 + 4 + 1 + 1;
  constexpr std::size_t kHistogram =
      static_cast<std::size_t>(support::Histogram::kBins) * 8 + 8 + 3 * 8;
  return kLeafFixed + encoded_size_hint(node.event.ranks) + kHistogram;
}

std::size_t encoded_size_hint(const std::vector<TraceNode>& nodes) {
  std::size_t n = 4;
  for (const auto& node : nodes) n += encoded_size_hint(node);
  return n;
}

namespace {

void encode_endpoint(ByteWriter& w, const Endpoint& ep) {
  w.u8(static_cast<std::uint8_t>(ep.kind));
  w.i32(ep.value);
}

Endpoint decode_endpoint(ByteReader& r) {
  Endpoint ep;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(Endpoint::Kind::kAbsolute))
    throw DecodeError("bad endpoint kind");
  ep.kind = static_cast<Endpoint::Kind>(kind);
  ep.value = r.i32();
  return ep;
}

void encode_histogram(ByteWriter& w, const support::Histogram& h) {
  for (int i = 0; i < support::Histogram::kBins; ++i) w.u64(h.bin(i));
  w.u64(h.count());
  w.f64(h.min());
  w.f64(h.max());
  w.f64(h.total());
}

support::Histogram decode_histogram(ByteReader& r) {
  std::array<std::uint64_t, support::Histogram::kBins> bins{};
  for (auto& b : bins) b = r.u64();
  const std::uint64_t count = r.u64();
  const double mn = r.f64();
  const double mx = r.f64();
  const double sum = r.f64();
  return support::Histogram::from_raw(bins, count, mn, mx, sum);
}

constexpr std::uint8_t kLeafMark = 0xE1;
constexpr std::uint8_t kLoopMark = 0xE2;

}  // namespace

void encode_node(ByteWriter& w, const TraceNode& node) {
  if (node.is_loop()) {
    w.u8(kLoopMark);
    w.u64(node.iters);
    w.u32(static_cast<std::uint32_t>(node.body.size()));
    for (const auto& child : node.body) encode_node(w, child);
    return;
  }
  w.u8(kLeafMark);
  const EventRecord& ev = node.event;
  w.u8(static_cast<std::uint8_t>(ev.op));
  w.u64(ev.stack_sig);
  encode_endpoint(w, ev.src);
  encode_endpoint(w, ev.dest);
  w.u64(ev.bytes);
  w.i32(ev.tag);
  w.u8(static_cast<std::uint8_t>(ev.comm));
  w.u8(ev.is_marker ? 1 : 0);
  encode_ranklist(w, ev.ranks);
  encode_histogram(w, ev.delta);
}

TraceNode decode_node(ByteReader& r) {
  const std::uint8_t mark = r.u8();
  if (mark == kLoopMark) {
    const std::uint64_t iters = r.u64();
    if (iters == 0) throw DecodeError("loop with zero iterations");
    const std::uint32_t len = r.u32();
    if (len > (1u << 20)) throw DecodeError("loop body length implausible");
    if (len > r.remaining() / kMinNodeBytes)
      throw DecodeError("loop body length exceeds buffer");
    std::vector<TraceNode> body;
    body.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) body.push_back(decode_node(r));
    // The loop() factory rehashes, so decoded nodes come out hash-consistent.
    return TraceNode::loop(iters, std::move(body));
  }
  if (mark != kLeafMark) throw DecodeError("bad node marker");
  EventRecord ev;
  ev.op = static_cast<sim::Op>(r.u8());
  ev.stack_sig = r.u64();
  ev.src = decode_endpoint(r);
  ev.dest = decode_endpoint(r);
  ev.bytes = r.u64();
  ev.tag = r.i32();
  ev.comm = r.u8();
  ev.is_marker = r.u8() != 0;
  ev.ranks = decode_ranklist(r);
  ev.delta = decode_histogram(r);
  return TraceNode::leaf(std::move(ev));
}

std::vector<std::uint8_t> encode_trace(const std::vector<TraceNode>& nodes) {
  ByteWriter w;
  w.reserve(encoded_size_hint(nodes));
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (const auto& node : nodes) encode_node(w, node);
  return w.take();
}

namespace {

void encode_node_structure(ByteWriter& w, const TraceNode& node) {
  if (node.is_loop()) {
    w.u8(kLoopMark);
    w.u64(node.iters);
    w.u32(static_cast<std::uint32_t>(node.body.size()));
    for (const auto& child : node.body) encode_node_structure(w, child);
    return;
  }
  w.u8(kLeafMark);
  const EventRecord& ev = node.event;
  w.u8(static_cast<std::uint8_t>(ev.op));
  w.u64(ev.stack_sig);
  encode_endpoint(w, ev.src);
  encode_endpoint(w, ev.dest);
  w.u64(ev.bytes);
  w.i32(ev.tag);
  w.u8(static_cast<std::uint8_t>(ev.comm));
  w.u8(ev.is_marker ? 1 : 0);
  encode_ranklist(w, ev.ranks);
  w.u64(ev.delta.count());  // host-timed seconds excluded (see header)
}

}  // namespace

std::vector<std::uint8_t> encode_trace_structure(
    const std::vector<TraceNode>& nodes) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (const auto& node : nodes) encode_node_structure(w, node);
  return w.take();
}

std::vector<TraceNode> decode_trace(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::uint32_t len = r.u32();
  if (len > (1u << 24)) throw DecodeError("trace length implausible");
  if (len > r.remaining() / kMinNodeBytes)
    throw DecodeError("trace length exceeds buffer");
  std::vector<TraceNode> nodes;
  nodes.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) nodes.push_back(decode_node(r));
  if (!r.exhausted()) throw DecodeError("trailing bytes after trace");
  return nodes;
}

}  // namespace cham::trace
