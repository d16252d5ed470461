// Utility-layer tests: hashing/RNG determinism and distribution sanity,
// bit tricks, and the edge type's canonical form.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/bits.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace bdc {
namespace {

TEST(Bits, Log2AndPow2) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(1024), 10u);
  EXPECT_EQ(log2_ceil(1025), 11u);
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(1023), 9u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
}

TEST(Random, DeterministicStreams) {
  random a(42), b(42), c(43);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.ith_rand(i), b.ith_rand(i));
  }
  size_t diff = 0;
  for (uint64_t i = 0; i < 100; ++i) diff += a.ith_rand(i) != c.ith_rand(i);
  EXPECT_GT(diff, 90u);
}

TEST(Random, ForkedStreamsAreIndependent) {
  random base(7);
  random f1 = base.fork(1), f2 = base.fork(2);
  size_t diff = 0;
  for (uint64_t i = 0; i < 100; ++i) diff += f1.ith_rand(i) != f2.ith_rand(i);
  EXPECT_GT(diff, 90u);
}

TEST(Random, BoundedDrawsAreUniformIsh) {
  random r(11);
  const uint64_t bound = 10, n = 100000;
  std::vector<size_t> counts(bound, 0);
  for (uint64_t i = 0; i < n; ++i) counts[r.ith_rand(i, bound)]++;
  for (uint64_t b = 0; b < bound; ++b) {
    EXPECT_GT(counts[b], n / bound * 8 / 10);
    EXPECT_LT(counts[b], n / bound * 12 / 10);
  }
}

TEST(Random, Hash64AvalanchesLowBits) {
  // Consecutive inputs must produce well-spread low bits (the
  // phase-concurrent map and the semisort buckets index by them).
  std::set<uint64_t> low;
  for (uint64_t i = 0; i < 256; ++i) low.insert(hash64(i) & 0xff);
  EXPECT_GT(low.size(), 150u);
}

TEST(Edge, CanonicalForm) {
  edge e{7, 3};
  EXPECT_EQ(e.canonical(), (edge{3, 7}));
  EXPECT_EQ(e.canonical().canonical(), (edge{3, 7}));
  EXPECT_EQ(e.reversed(), (edge{3, 7}));
  EXPECT_TRUE((edge{5, 5}).is_self_loop());
  EXPECT_FALSE(e.is_self_loop());
}

TEST(Edge, KeyRoundTrip) {
  for (vertex_id u : {0u, 1u, 77u, (1u << 30)}) {
    for (vertex_id v : {0u, 2u, 1000000u}) {
      edge e{u, v};
      EXPECT_EQ(edge_from_key(edge_key(e)), e);
    }
  }
  EXPECT_NE(edge_key(edge{1, 2}), edge_key(edge{2, 1}));  // directional
}

TEST(Edge, HashSpreads) {
  std::set<size_t> hashes;
  std::hash<edge> h;
  for (vertex_id u = 0; u < 50; ++u)
    for (vertex_id v = 0; v < 50; ++v) hashes.insert(h(edge{u, v}));
  EXPECT_EQ(hashes.size(), 2500u);  // no collisions on this tiny set
}

TEST(RandomStream, SequentialConvenience) {
  random_stream rs(5);
  uint64_t a = rs.next(), b = rs.next();
  EXPECT_NE(a, b);
  double d = rs.next_double();
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 1.0);
  uint64_t bounded = rs.next(17);
  EXPECT_LT(bounded, 17u);
}

}  // namespace
}  // namespace bdc
