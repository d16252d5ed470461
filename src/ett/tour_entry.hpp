// The packed 64-bit tour-entry encoding of blocked_ett's tours: a
// sentinel entry is the bare vertex id; a directed arc
// (t, h) sets the top bit and packs the tail above the head. The layout
// caps vertex ids at 2^31 - 1: the static_assert fires if vertex_id
// widens past 32 bits, and arc_tag asserts the 31-bit range per id at
// runtime (a vertex id with bit 31 set would silently alias another
// arc's tag otherwise — ids in [2^31, 2^32) fit vertex_id but not the
// tag fields).
#pragma once

#include <cassert>
#include <cstdint>

#include "util/types.hpp"

namespace bdc {

inline constexpr uint64_t kArcTagBit = uint64_t{1} << 63;
/// Largest vertex id the packed arc tags can carry.
inline constexpr vertex_id kMaxTourVertex = (vertex_id{1} << 31) - 1;
static_assert(sizeof(vertex_id) <= 4,
              "tour-entry tags pack two vertex ids into 62 bits");

[[nodiscard]] constexpr uint64_t arc_tag(vertex_id t, vertex_id h) {
  assert(t <= kMaxTourVertex && h <= kMaxTourVertex);
  return kArcTagBit | (static_cast<uint64_t>(t) << 31) |
         static_cast<uint64_t>(h);
}
[[nodiscard]] constexpr bool is_arc_tag(uint64_t tag) {
  return (tag & kArcTagBit) != 0;
}
[[nodiscard]] constexpr vertex_id arc_tag_tail(uint64_t tag) {
  return static_cast<vertex_id>((tag >> 31) & 0xffffffffull);
}
[[nodiscard]] constexpr vertex_id arc_tag_head(uint64_t tag) {
  return static_cast<vertex_id>(tag & 0x7fffffffull);
}
/// Vertex at which the tour enters (tail) / leaves (head) an entry;
/// sentinels enter and leave at their own vertex.
[[nodiscard]] constexpr vertex_id tag_tail(uint64_t tag) {
  return is_arc_tag(tag) ? arc_tag_tail(tag) : static_cast<vertex_id>(tag);
}
[[nodiscard]] constexpr vertex_id tag_head(uint64_t tag) {
  return is_arc_tag(tag) ? arc_tag_head(tag) : static_cast<vertex_id>(tag);
}

}  // namespace bdc
