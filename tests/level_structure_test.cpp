// Direct unit tests of the level hierarchy's compound operations:
// registration, kind flips, pushes between levels, detach/re-attach, and
// lazy materialization — independent of the search algorithms above them.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_connectivity.hpp"
#include "core/level_structure.hpp"
#include "ett/tour_entry.hpp"

namespace bdc {
namespace {

std::vector<edge> canon(std::initializer_list<edge> es) {
  std::vector<edge> out;
  for (edge e : es) out.push_back(e.canonical());
  return out;
}

// n = kMaxTourVertex + 1 is the largest count the packed arc tags hold
// (ids 0 .. 2^31 - 1); one more must fail-stop in every build type, before
// anything is sized by n.
TEST(LevelStructureDeathTest, RejectsVertexCountBeyondTourTags) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const vertex_id too_many = kMaxTourVertex + 2;
  EXPECT_DEATH(level_structure{too_many},
               "n = 2147483649 exceeds the 2147483648 vertices");
  EXPECT_DEATH(batch_dynamic_connectivity{too_many},
               "n = 2147483649 exceeds the 2147483648 vertices");
}

TEST(LevelStructure, Sizing) {
  level_structure tiny(2);
  EXPECT_EQ(tiny.num_levels(), 1);
  EXPECT_EQ(tiny.capacity(0), 2u);

  level_structure ls(1000);
  EXPECT_EQ(ls.num_levels(), 10);  // ceil(lg 1000)
  EXPECT_EQ(ls.capacity(ls.top()), 1024u);
  EXPECT_NE(ls.forest_if(ls.top()), nullptr);  // top always materialized
  EXPECT_EQ(ls.forest_if(0), nullptr);         // others lazy
}

TEST(LevelStructure, AddEdgesRegistersEverything) {
  level_structure ls(16);
  int top = ls.top();
  auto es = canon({{0, 1}, {2, 3}, {1, 2}});
  std::vector<uint8_t> kinds = {1, 1, 0};
  ls.add_edges(top, es, kinds);
  ls.link_tree(top, canon({{0, 1}, {2, 3}}));

  EXPECT_EQ(ls.num_edges(), 3u);
  const edge_record* rec = ls.record_of({1, 2});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->level, top);
  EXPECT_EQ(rec->is_tree, 0);
  EXPECT_EQ(ls.adj(top).nontree_degree(1), 1u);
  EXPECT_EQ(ls.adj(top).tree_degree(1), 1u);
  auto counts = ls.forest(top).vertex_counts(1);
  EXPECT_EQ(counts.tree_edges, 1u);
  EXPECT_EQ(counts.nontree_edges, 1u);
}

TEST(LevelStructure, PromoteFlipsKindEverywhere) {
  level_structure ls(16);
  int top = ls.top();
  auto es = canon({{4, 5}});
  std::vector<uint8_t> kinds = {0};
  ls.add_edges(top, es, kinds);
  ls.promote_to_tree(top, es);
  EXPECT_EQ(ls.record_of({4, 5})->is_tree, 1);
  EXPECT_EQ(ls.adj(top).tree_degree(4), 1u);
  EXPECT_EQ(ls.adj(top).nontree_degree(4), 0u);
  EXPECT_EQ(ls.forest(top).vertex_counts(5).tree_edges, 1u);
}

TEST(LevelStructure, MoveDownMaterializesAndLinks) {
  level_structure ls(16);
  int top = ls.top();
  auto es = canon({{0, 1}});
  std::vector<uint8_t> kinds = {1};
  ls.add_edges(top, es, kinds);
  ls.link_tree(top, es);
  EXPECT_EQ(ls.forest_if(top - 1), nullptr);

  ls.move_down(top, es);
  ASSERT_NE(ls.forest_if(top - 1), nullptr);
  EXPECT_EQ(ls.record_of({0, 1})->level, top - 1);
  EXPECT_TRUE(ls.forest(top - 1).has_edge({0, 1}));
  EXPECT_TRUE(ls.forest(top).has_edge({0, 1}));  // still in higher forest
  EXPECT_EQ(ls.adj(top).tree_degree(0), 0u);
  EXPECT_EQ(ls.adj(top - 1).tree_degree(0), 1u);
  EXPECT_EQ(ls.forest(top).vertex_counts(0).tree_edges, 0u);
  EXPECT_EQ(ls.forest(top - 1).vertex_counts(0).tree_edges, 1u);
}

TEST(LevelStructure, DetachAndReattach) {
  level_structure ls(16);
  int top = ls.top();
  auto es = canon({{2, 6}, {2, 7}});
  std::vector<uint8_t> kinds = {0, 0};
  ls.add_edges(top, es, kinds);

  auto just_one = canon({{2, 6}});
  ls.detach_edges(top, just_one);
  EXPECT_EQ(ls.adj(top).nontree_degree(2), 1u);  // (2,7) remains
  EXPECT_EQ(ls.forest(top).vertex_counts(2).nontree_edges, 1u);
  ASSERT_NE(ls.record_of({2, 6}), nullptr);  // record survives detach

  ls.insert_detached(top - 1, just_one);
  EXPECT_EQ(ls.record_of({2, 6})->level, top - 1);
  EXPECT_EQ(ls.adj(top - 1).nontree_degree(6), 1u);
  EXPECT_EQ(ls.forest(top - 1).vertex_counts(6).nontree_edges, 1u);
}

TEST(LevelStructure, RemoveEdgesAcrossLevels) {
  level_structure ls(16);
  int top = ls.top();
  auto tree_es = canon({{0, 1}});
  auto non_es = canon({{0, 2}});
  std::vector<uint8_t> t{1}, f{0};
  ls.add_edges(top, tree_es, t);
  ls.link_tree(top, tree_es);
  ls.add_edges(top, non_es, f);
  ls.move_down(top, tree_es);  // now at different levels

  std::vector<edge> both = {tree_es[0], non_es[0]};
  ls.remove_edges(both);
  EXPECT_EQ(ls.num_edges(), 0u);
  EXPECT_EQ(ls.adj(top).nontree_degree(0), 0u);
  EXPECT_EQ(ls.adj(top - 1).tree_degree(0), 0u);
  EXPECT_EQ(ls.forest(top - 1).vertex_counts(0).tree_edges, 0u);
  // Forest membership is managed by the caller (batch_delete cuts
  // separately); here the edge is still linked:
  EXPECT_TRUE(ls.forest(top).has_edge({0, 1}));
}

TEST(LevelStructure, ExpandFetchOrdersAndCounts) {
  level_structure ls(16);
  int top = ls.top();
  auto es = canon({{3, 4}, {3, 5}, {3, 6}});
  std::vector<uint8_t> kinds = {0, 0, 0};
  ls.add_edges(top, es, kinds);
  std::vector<std::pair<vertex_id, uint32_t>> slots = {{3, 2}};
  std::vector<edge> out;
  ls.expand_fetch(top, /*nontree=*/true, slots, out);
  EXPECT_EQ(out.size(), 2u);
  for (const edge& e : out) EXPECT_EQ(e.u, 3u);
}

}  // namespace
}  // namespace bdc
