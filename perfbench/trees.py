"""Tree decomposition documents built with the benchmark's own arithmetic.

The construction gives every clause that ``tree verify`` checks by design:

- Every leaf basis vector is ``e_t + h`` for its own tail coordinate
  ``t >= depth`` and a head part ``h`` in span(e_0 .. e_{depth-1}), or one
  of ``depth`` extra vectors ``g_k = e_k + u_k`` whose tail part ``u_k``
  lies on tail coordinates owned by the other half of the tree.  Inside any
  node below the root the tail parts are therefore independent, so no
  nonzero vector of the node lies in the head span (clause a).
- All leaf bases together form a basis of the window (checked with an
  exact determinant), so each node is the direct sum of its children
  (clause b).
- Tail coordinates are dealt evenly to the leaves (clause c is checked).
- The witness ``w`` is the sum of one basis vector from each leaf, so its
  component in every leaf is nonzero (clause d).
"""

from fractions import Fraction

from exact import fmt_list, fmt_matrix, mat_vec, rank


def strings(length):
    if length == 0:
        return [""]
    return [s + b for s in strings(length - 1) for b in "01"]


def _unit(M, k):
    v = [Fraction(0)] * M
    v[k] = Fraction(1)
    return v


class TreeDoc:
    """A tree document with the facts its construction fixes."""

    def __init__(self, depth, window, nodes, w):
        self.depth = depth
        self.window = window
        self.nodes = nodes  # name -> list of basis rows
        self.w = w

    def text(self, nodes=None, w=None):
        nodes = self.nodes if nodes is None else nodes
        w = self.w if w is None else w
        lines = [f"tree depth={self.depth} window={self.window} field Q",
                 f"w {fmt_list(w, 0)}"]
        for name in sorted(nodes, key=lambda s: (len(s), s)):
            lines.append(f"node {name or '.'} {fmt_matrix(nodes[name], 0)}")
        return "\n".join(lines)

    def tampered_witness(self):
        """The document with a zero witness: fails clause d."""
        return self.text(w=[Fraction(0)] * self.window)

    def tampered_split(self):
        """Node 1 takes a basis vector of node 0: fails clause b at the root."""
        nodes = dict(self.nodes)
        nodes["1"] = [self.nodes["0"][0]] + self.nodes["1"][1:]
        return self.text(nodes=nodes)


def build(depth, M, rng):
    if depth < 1 or M < 2 ** (depth + 2):
        raise ValueError("tree needs depth >= 1 and window >= 2^(depth+2)")
    d = depth
    leaves = strings(d)
    tail = list(range(d, M))
    rng.shuffle(tail)
    owner = {}
    for idx, t in enumerate(tail):
        owner[t] = leaves[idx * len(leaves) // len(tail)]
    half_coords = {h: [t for t in tail if owner[t][0] == h] for h in "01"}
    # g_k lives in half k % 2 and takes its tail part from the other half;
    # primaries are distinct and extras avoid every primary
    g_leaf = {}
    primary = {}
    for k in range(d):
        mine = "01"[k % 2]
        other = "10"[k % 2]
        g_leaf[k] = rng.choice([leaf for leaf in leaves if leaf[0] == mine])
        primary[k] = rng.choice([t for t in half_coords[other] if t not in primary.values()])
    extras_pool = {h: [t for t in half_coords[h] if t not in primary.values()] for h in "01"}
    while True:
        # sparse head parts and one extra per tail part keep the node bases
        # about as sparse as the ones the program builds itself
        head = {t: [Fraction(0)] * d for t in tail}
        for k in range(d):
            for t in rng.sample(tail, 2):
                head[t][k] = Fraction(rng.choice((-1, 1)))
        u = {}
        for k in range(d):
            other = "10"[k % 2]
            vec = {primary[k]: Fraction(1)}
            for t in rng.sample(extras_pool[other], 1):
                vec[t] = Fraction(rng.choice((-1, 1, 2)))
            u[k] = vec
        # the leaf bases form a basis iff det(I - H U) != 0
        S = [[Fraction(int(i == j)) - sum(head[t][i] * u[j].get(t, 0) for t in tail)
              for j in range(d)] for i in range(d)]
        if rank(S, 0) == d:
            break
    basis = {leaf: [] for leaf in leaves}
    for t in sorted(tail):
        v = _unit(M, t)
        for k in range(d):
            v[k] = head[t][k]
        basis[owner[t]].append(v)
    for k in range(d):
        v = _unit(M, k)
        for t, c in u[k].items():
            v[t] = c
        basis[g_leaf[k]].append(v)
    nodes = {"": [_unit(M, k) for k in range(M)]}
    for m in range(1, d + 1):
        for name in strings(m):
            rows = [row for leaf in leaves if leaf.startswith(name) for row in basis[leaf]]
            if len(rows) < M // 2 ** m - m:
                raise ValueError(f"node {name} below the dimension floor")
            nodes[name] = rows
    w = [Fraction(0)] * M
    for leaf in leaves:
        w = [a + b for a, b in zip(w, basis[leaf][0])]
    return TreeDoc(d, M, nodes, w)


def kills(E, w):
    """E w = 0 for a matrix E and vector w over Q."""
    return all(x == 0 for x in mat_vec(E, w, 0))
