#include "core/tree.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pr {

Tree::Tree(int n) : n_(n) {
  check_arg(n >= 1, "Tree: degree must be >= 1");
  root_ = build(1, n, -1, 0);
}

std::vector<int> Tree::spine_levels() const {
  std::vector<int> levels;
  for (const TreeNode& nd : nodes_) {
    if (nd.spine(n_)) levels.push_back(nd.i - 1);
  }
  std::sort(levels.begin(), levels.end());
  return levels;
}

int Tree::build(int i, int j, int parent, int level) {
  const int idx = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    TreeNode& nd = nodes_.back();
    nd.i = i;
    nd.j = j;
    nd.parent = parent;
    nd.level = level;
  }
  depth_ = std::max(depth_, level + 1);
  if (i < j) {
    const int k = i + (j - i + 1) / 2;
    const int left = build(i, k - 1, idx, level + 1);
    const int right = build(k + 1, j, idx, level + 1);
    TreeNode& nd = nodes_[static_cast<std::size_t>(idx)];
    nd.split = k;
    nd.left = left;
    nd.right = right;
  }
  postorder_.push_back(idx);
  return idx;
}

}  // namespace pr
