"""Rooted ordered binary full trees with arbitrary hashable labels,
and `fold`, the one bottom-up walk of any tree-shaped data.

Every node has either zero or two children.  Nodes are identified by
object identity; `postorder`/`preorder` give stable traversal orders.
`fold`, `postorder` and `preorder` keep an explicit stack, so the depth
of a tree is bounded by memory, not by the recursion limit.
"""


class Node:
    __slots__ = ("label", "left", "right")

    def __init__(self, label, left=None, right=None):
        if (left is None) != (right is None):
            raise ValueError("binary full tree: zero or two children")
        self.label = label
        self.left = left
        self.right = right

    def is_leaf(self):
        return self.left is None

    def __repr__(self):
        return "Node(%r%s)" % (self.label, "" if self.is_leaf() else ", ...")


def children(node):
    """A node's children: () for a leaf, else (left, right)."""
    return () if node.left is None else (node.left, node.right)


def fold(root, children, make):
    """make(node, [results of children(node)]) on every node below root,
    children first and in order, by an explicit stack; returns the
    root's result."""
    done = []
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            kids = children(node)
            stack.append((node, kids))
            stack.extend((c, None) for c in reversed(kids))
            continue
        cut = len(done) - len(kids)
        result = make(node, done[cut:])
        del done[cut:]
        done.append(result)
    return done[0]


def postorder(root):
    """Children before parents; iterative to avoid recursion limits."""
    out = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or node.is_leaf():
            out.append(node)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return out


def preorder(root):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if not node.is_leaf():
            stack.append(node.right)
            stack.append(node.left)
    return out


def size(root):
    return len(postorder(root))


def parents(root):
    """Map node -> parent (root absent)."""
    par = {}
    for n in preorder(root):
        if not n.is_leaf():
            par[n.left] = n
            par[n.right] = n
    return par


def map_labels(root, f):
    """New tree with the same shape and labels f(old_label)."""
    return fold(root, children, lambda n, kids: Node(f(n.label), *kids))


def full_binary(depth, label):
    """Balanced full binary tree of the given depth with a constant label."""
    if depth == 0:
        return Node(label)
    left = full_binary(depth - 1, label)
    right = full_binary(depth - 1, label)
    return Node(label, left, right)


def enumerate_shapes(n_nodes):
    """All full binary tree shapes with exactly n_nodes nodes (labels None)."""
    if n_nodes % 2 == 0 or n_nodes < 1:
        return []
    if n_nodes == 1:
        return [Node(None)]
    out = []
    for left_n in range(1, n_nodes - 1, 2):
        right_n = n_nodes - 1 - left_n
        for l in enumerate_shapes(left_n):
            for r in enumerate_shapes(right_n):
                out.append(Node(None, l, r))
    return out
