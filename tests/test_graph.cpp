// Unit tests for the graph substrate: DataGraph and QueryGraph semantics.
#include <gtest/gtest.h>

#include "graph/data_graph.hpp"
#include "graph/query_graph.hpp"

namespace paracosm::graph {
namespace {

TEST(DataGraph, AddVertexAssignsDenseIds) {
  DataGraph g;
  EXPECT_EQ(g.add_vertex(5), 0u);
  EXPECT_EQ(g.add_vertex(6), 1u);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.label(0), 5u);
  EXPECT_EQ(g.label(1), 6u);
}

TEST(DataGraph, AddVertexWithIdFillsGaps) {
  DataGraph g;
  g.add_vertex_with_id(5, 9);
  EXPECT_TRUE(g.has_vertex(5));
  EXPECT_FALSE(g.has_vertex(3));
  EXPECT_EQ(g.vertex_capacity(), 6u);
  EXPECT_EQ(g.num_vertices(), 1u);
}

// A snapshot lists alive vertices only, so a graph whose highest ids died
// reloads with fewer slots; structural equality must not see the difference
// (the service crash-recovery lane compares exactly such graphs).
TEST(DataGraph, SameStructureIgnoresDeadTrailingSlots) {
  DataGraph g;
  for (Label l = 0; l < 4; ++l) g.add_vertex(l);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 0);
  g.remove_vertex(3);
  DataGraph compact;
  for (VertexId u = 0; u < 3; ++u) compact.add_vertex_with_id(u, g.label(u));
  compact.add_edge(0, 1, 2);
  compact.add_edge(1, 2, 0);
  ASSERT_NE(g.vertex_capacity(), compact.vertex_capacity());
  EXPECT_TRUE(g.same_structure(compact));
  EXPECT_TRUE(compact.same_structure(g));
  compact.add_vertex_with_id(3, 3);  // a live vertex where g has a dead one
  EXPECT_FALSE(g.same_structure(compact));
  EXPECT_FALSE(compact.same_structure(g));
}

TEST(DataGraph, AddEdgeIsUndirectedAndLabeled) {
  DataGraph g;
  g.add_vertex(0);
  g.add_vertex(0);
  ASSERT_TRUE(g.add_edge(0, 1, 7));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_label(0, 1), 7u);
  EXPECT_EQ(g.edge_label(1, 0), 7u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(DataGraph, DuplicateAndSelfLoopRejected) {
  DataGraph g;
  g.add_vertex(0);
  g.add_vertex(0);
  ASSERT_TRUE(g.add_edge(0, 1, 0));
  EXPECT_FALSE(g.add_edge(0, 1, 3));  // duplicate keeps original label
  EXPECT_EQ(g.edge_label(0, 1), 0u);
  EXPECT_FALSE(g.add_edge(0, 0, 0));  // self loop
  EXPECT_FALSE(g.add_edge(0, 99, 0));  // missing endpoint
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DataGraph, RemoveEdgeReturnsLabel) {
  DataGraph g;
  g.add_vertex(0);
  g.add_vertex(0);
  g.add_edge(0, 1, 4);
  const auto removed = g.remove_edge(0, 1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 4u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.remove_edge(0, 1).has_value());  // phantom removal
}

TEST(DataGraph, NeighborsStaySorted) {
  DataGraph g;
  for (int i = 0; i < 6; ++i) g.add_vertex(0);
  g.add_edge(0, 4, 0);
  g.add_edge(0, 1, 0);
  g.add_edge(0, 3, 0);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(nbrs[0].v < nbrs[1].v && nbrs[1].v < nbrs[2].v);
}

TEST(DataGraph, RemoveVertexCascades) {
  DataGraph g;
  for (int i = 0; i < 4; ++i) g.add_vertex(1);
  g.add_edge(0, 1, 0);
  g.add_edge(0, 2, 0);
  g.add_edge(1, 2, 0);
  EXPECT_EQ(g.remove_vertex(0), 2u);
  EXPECT_FALSE(g.has_vertex(0));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.vertices_with_label(1).size() == 3);
}

TEST(DataGraph, ApplyDispatchesAllOps) {
  DataGraph g;
  g.add_vertex(0);
  g.add_vertex(0);
  EXPECT_TRUE(g.apply(GraphUpdate::insert_edge(0, 1, 2)));
  EXPECT_TRUE(g.apply(GraphUpdate::remove_edge(0, 1)));
  EXPECT_TRUE(g.apply(GraphUpdate::insert_vertex(5, 3)));
  EXPECT_TRUE(g.has_vertex(5));
  EXPECT_TRUE(g.apply(GraphUpdate::remove_vertex(5)));
  EXPECT_FALSE(g.apply(GraphUpdate::remove_vertex(5)));
}

TEST(DataGraph, NlfCountsNeighborLabels) {
  DataGraph g;
  g.add_vertex(0);
  g.add_vertex(1);
  g.add_vertex(1);
  g.add_vertex(2);
  g.add_edge(0, 1, 0);
  g.add_edge(0, 2, 0);
  g.add_edge(0, 3, 0);
  EXPECT_EQ(g.nlf(0, 1), 2u);
  EXPECT_EQ(g.nlf(0, 2), 1u);
  EXPECT_EQ(g.nlf(0, 9), 0u);
}

TEST(DataGraph, EdgeListNormalized) {
  DataGraph g;
  for (int i = 0; i < 3; ++i) g.add_vertex(0);
  g.add_edge(2, 0, 5);
  g.add_edge(1, 2, 6);
  const auto edges = g.edge_list();
  ASSERT_EQ(edges.size(), 2u);
  for (const auto& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(DataGraph, SameStructureDetectsDifferences) {
  DataGraph a, b;
  for (int i = 0; i < 3; ++i) {
    a.add_vertex(i);
    b.add_vertex(i);
  }
  a.add_edge(0, 1, 0);
  b.add_edge(0, 1, 0);
  EXPECT_TRUE(a.same_structure(b));
  b.add_edge(1, 2, 0);
  EXPECT_FALSE(a.same_structure(b));
}

TEST(DataGraph, CopyIsIndependent) {
  DataGraph a;
  a.add_vertex(0);
  a.add_vertex(0);
  a.add_edge(0, 1, 0);
  DataGraph b = a;
  b.remove_edge(0, 1);
  EXPECT_TRUE(a.has_edge(0, 1));
  EXPECT_FALSE(b.has_edge(0, 1));
}

TEST(DataGraph, StatsHelpers) {
  DataGraph g;
  for (const Label l : {0u, 0u, 1u, 2u}) g.add_vertex(l);
  g.add_edge(0, 1, 3);
  g.add_edge(0, 2, 4);
  g.add_edge(0, 3, 3);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(g.num_vertex_labels(), 3u);
  EXPECT_EQ(g.num_edge_labels(), 2u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

TEST(QueryGraph, ValidatesInput) {
  EXPECT_THROW(QueryGraph({0, 1}, {{0, 0, 0}}), std::invalid_argument);  // self loop
  EXPECT_THROW(QueryGraph({0, 1}, {{0, 1, 0}, {1, 0, 0}}), std::invalid_argument);
  EXPECT_THROW(QueryGraph({0, 1}, {{0, 5, 0}}), std::invalid_argument);  // range
}

TEST(QueryGraph, ConnectivityDetection) {
  EXPECT_TRUE(QueryGraph({0, 1, 2}, {{0, 1, 0}, {1, 2, 0}}).connected());
  EXPECT_FALSE(QueryGraph({0, 1, 2}, {{0, 1, 0}}).connected());
  EXPECT_TRUE(QueryGraph({}, {}).connected());
}

TEST(QueryGraph, NlfSignature) {
  QueryGraph q({0, 1, 1, 2}, {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}});
  EXPECT_EQ(q.nlf(0, 1), 2u);
  EXPECT_EQ(q.nlf(0, 2), 1u);
  EXPECT_EQ(q.nlf(1, 0), 1u);
  EXPECT_EQ(q.nlf(1, 2), 0u);
}

TEST(QueryGraph, LabelTriplesBothOrientations) {
  QueryGraph q({3, 4}, {{0, 1, 9}});
  EXPECT_TRUE(q.label_triple_exists(3, 4, 9));
  EXPECT_TRUE(q.label_triple_exists(4, 3, 9));
  EXPECT_FALSE(q.label_triple_exists(3, 4, 8));
  EXPECT_FALSE(q.label_triple_exists(3, 3, 9));
}

TEST(QueryGraph, MatchingEdgesRespectsOrientationAndElabels) {
  QueryGraph q({0, 1, 0}, {{0, 1, 5}, {1, 2, 6}});
  const auto pairs = q.matching_edges(0, 1, 5);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 0u);
  EXPECT_EQ(pairs[0].second, 1u);
  // Reversed data labels give the reversed query pair.
  const auto rev = q.matching_edges(1, 0, 5);
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(rev[0].first, 1u);
  // Ignoring edge labels matches both query edges with compatible endpoints.
  const auto blind = q.matching_edges(0, 1, 99, /*ignore_edge_labels=*/true);
  EXPECT_EQ(blind.size(), 2u);  // (0,1) via edge 0-1 and (2,1) via edge 1-2
}

TEST(QueryGraph, SymmetricLabelEdgeMatchesBothWays) {
  QueryGraph q({0, 0}, {{0, 1, 0}});
  // Both endpoints share a label: one data edge can seed both orientations.
  EXPECT_EQ(q.matching_edges(0, 0, 0).size(), 2u);
}

// apply_checked must classify every rejection precisely while staying
// state-equivalent to apply(): it changes the graph iff apply() would.
TEST(DataGraph, ApplyCheckedClassifiesEdgeOps) {
  DataGraph g;
  g.add_vertex(1);
  g.add_vertex(2);

  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_edge(0, 1, 5)),
            MutationStatus::kApplied);
  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_edge(0, 1, 9)),
            MutationStatus::kDuplicateEdge);
  EXPECT_EQ(g.edge_label(0, 1), 5u);  // rejection did not relabel
  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_edge(0, 0, 0)),
            MutationStatus::kSelfLoop);
  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_edge(0, 7, 0)),
            MutationStatus::kMissingVertex);
  EXPECT_EQ(g.apply_checked(GraphUpdate::remove_edge(1, 0)),
            MutationStatus::kApplied);
  EXPECT_EQ(g.apply_checked(GraphUpdate::remove_edge(0, 1)),
            MutationStatus::kMissingEdge);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DataGraph, ApplyCheckedClassifiesVertexOps) {
  DataGraph g;
  g.add_vertex(3);

  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_vertex(0, 3)),
            MutationStatus::kVertexExists);
  // Same id, different label: a relabel is allowed through (apply() parity).
  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_vertex(0, 4)),
            MutationStatus::kApplied);
  EXPECT_EQ(g.label(0), 4u);
  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_vertex(6, 1)),
            MutationStatus::kApplied);
  EXPECT_EQ(g.apply_checked(GraphUpdate::remove_vertex(6)),
            MutationStatus::kApplied);
  EXPECT_EQ(g.apply_checked(GraphUpdate::remove_vertex(6)),
            MutationStatus::kMissingVertex);
  EXPECT_EQ(g.apply_checked(GraphUpdate::remove_vertex(99)),
            MutationStatus::kMissingVertex);
}

TEST(DataGraph, ApplyCheckedRejectsIdsBeyondAdmissionCaps) {
  DataGraph g;
  g.add_vertex(0);
  const VertexId huge = kMaxVertexId + 1;
  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_edge(0, huge, 0)),
            MutationStatus::kInvalidId);
  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_vertex(huge, 0)),
            MutationStatus::kInvalidId);
  EXPECT_EQ(g.apply_checked(GraphUpdate::insert_vertex(1, kMaxLabel + 1)),
            MutationStatus::kInvalidId);
  EXPECT_EQ(g.apply_checked(GraphUpdate::remove_vertex(huge)),
            MutationStatus::kInvalidId);
  // Nothing leaked into the dense vectors.
  EXPECT_EQ(g.vertex_capacity(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DataGraph, ApplyCheckedMatchesApplyOnEveryStatus) {
  const std::vector<GraphUpdate> probes{
      GraphUpdate::insert_vertex(0, 1), GraphUpdate::insert_vertex(1, 1),
      GraphUpdate::insert_edge(0, 1, 2), GraphUpdate::insert_edge(0, 1, 2),
      GraphUpdate::insert_edge(2, 3, 0), GraphUpdate::remove_edge(0, 1),
      GraphUpdate::remove_edge(0, 1),   GraphUpdate::remove_vertex(1),
      GraphUpdate::remove_vertex(1)};
  DataGraph checked, plain;
  for (const GraphUpdate& upd : probes) {
    const bool changed =
        checked.apply_checked(upd) == MutationStatus::kApplied;
    // apply() on vertex inserts always reports true (relabel semantics);
    // everything else must agree exactly.
    const bool plain_changed = plain.apply(upd);
    if (upd.op != UpdateOp::kInsertVertex) {
      EXPECT_EQ(changed, plain_changed);
    }
    EXPECT_TRUE(checked.same_structure(plain));
  }
}

}  // namespace
}  // namespace paracosm::graph
