// The interleaving tree of Section 2.1.
//
// Node [i,j] (1 <= i <= j <= n) carries the polynomial P_{i,j}; its
// children are [i,k-1] and [k+1,j] with the split k = i + floor((j-i+1)/2),
// so a node of "length" L = j-i+1 has children of lengths floor(L/2) and
// L-1-floor(L/2) (the index k itself is consumed by the split, mirroring
// the paper's interleaving: children contribute L-1 interleaving roots).
// A child range with i > j is an *empty* node (P = 1, Eq. 5 third case).
//
// Right-spine nodes (j == n) take their polynomial directly from the
// remainder sequence, P_{i,n} = F_{i-1} (Eq. 5 second case), and need no
// T matrix; on the exact path every other non-empty node computes T_{i,j}
// bottom-up and reads P_{i,j} = T_{i,j}(2,2).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/polymat22.hpp"
#include "poly/poly.hpp"

namespace pr {

struct TreeNode {
  int i = 0, j = 0;   ///< inclusive label [i,j]; empty iff i > j
  int left = -1;      ///< index of child [i,k-1] (-1 for leaves/empty)
  int right = -1;     ///< index of child [k+1,j]
  int parent = -1;
  int split = 0;      ///< k
  int level = 0;      ///< depth (root = 0); the paper's level index

  bool empty() const { return i > j; }
  bool leaf() const { return i == j; }
  int length() const { return j - i + 1; }
  bool spine(int n) const { return !empty() && j == n; }

  // Filled in by the builder:
  PolyMat22 t;                 ///< T_{i,j}; meaningful iff has_t
  /// Set on leaves, empty nodes and exact internal nodes.  Spine nodes
  /// never form T, and with modular arithmetic on neither do internal
  /// non-spine nodes: they take P_{i,j} from the three-term recurrence
  /// (modular/tree_poly.hpp), so t stays empty and has_t false.
  bool has_t = false;
  Poly poly;                   ///< P_{i,j}
  std::vector<BigInt> roots;   ///< mu-scaled approximations, nondecreasing
};

/// The static structure of the tree (the paper's top-down RECURSE phase).
class Tree {
 public:
  /// Builds the node structure for a degree-n input (n >= 1).
  explicit Tree(int n);

  int degree() const { return n_; }
  int root_index() const { return root_; }
  std::vector<TreeNode>& nodes() { return nodes_; }
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  TreeNode& node(int idx) { return nodes_[static_cast<std::size_t>(idx)]; }
  const TreeNode& node(int idx) const {
    return nodes_[static_cast<std::size_t>(idx)];
  }

  /// Indices in bottom-up (post-) order: children before parents.
  const std::vector<int>& postorder() const { return postorder_; }

  /// Number of levels (root is level 0).
  int depth() const { return depth_; }

  /// The remainder-sequence levels the tree reads whole, ascending: t =
  /// i - 1 for every right-spine node [i, n] (P_{i,n} = F_{i-1}).  Every
  /// other node reads only c_t and Q_t.
  std::vector<int> spine_levels() const;

 private:
  int build(int i, int j, int parent, int level);

  int n_;
  int root_ = -1;
  int depth_ = 0;
  std::vector<TreeNode> nodes_;
  std::vector<int> postorder_;
};

}  // namespace pr
