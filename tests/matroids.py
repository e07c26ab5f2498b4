"""Seeded set families for the exchange tests: the bases of graphic,
partition and transversal matroids, random families of d-subsets, and
basis polynomials. Every family is a sorted list of sorted tuples."""

import itertools

import numpy as np

from lorentzflow.poly import MultiAffinePoly, normalize_at_ones, subset_basis


def graph(rng, vertices, edges):
    """A seeded connected simple graph: a random spanning tree plus
    random further edges, as a list of vertex pairs."""
    order = rng.permutation(vertices)
    tree = {tuple(sorted((int(order[rng.integers(k)]), int(order[k])))) for k in range(1, vertices)}
    others = [e for e in itertools.combinations(range(vertices), 2) if e not in tree]
    extra = rng.choice(len(others), edges - len(tree), replace=False)
    return sorted(tree) + [others[int(k)] for k in sorted(extra)]


def spanning_trees(edges, vertices):
    """Edge index sets of the spanning trees: the bases of the graphic
    matroid, of rank vertices - 1."""
    out = []
    for subset in itertools.combinations(range(len(edges)), vertices - 1):
        root = list(range(vertices))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for k in subset:
            a, b = find(edges[k][0]), find(edges[k][1])
            if a == b:
                break
            root[a] = b
        else:
            out.append(subset)
    return out


def graphic(rng, n, d):
    """Spanning trees of a seeded graph with d + 1 vertices and n edges."""
    return spanning_trees(graph(rng, d + 1, n), d + 1)


def partition(rng, n, d):
    """Bases of a seeded partition matroid: the ground set cut into
    blocks, each with a capacity, the capacities summing to d."""
    while True:
        blocks = np.array_split(rng.permutation(n), int(rng.integers(1, n + 1)))
        caps = [int(rng.integers(0, len(b) + 1)) for b in blocks]
        if sum(caps) == d:
            break
    choices = [itertools.combinations(sorted(b.tolist()), c) for b, c in zip(blocks, caps)]
    return sorted(tuple(sorted(itertools.chain(*parts))) for parts in itertools.product(*choices))


def transversal(rng, n, d):
    """Bases of a seeded transversal matroid: the d-subsets matched
    one-to-one to d random sets, each set holding its own element of a
    random d-subset so that the rank is d."""
    anchor = rng.choice(n, d, replace=False)
    sets = [{int(a)} | set(np.flatnonzero(rng.uniform(size=n) < 0.4).tolist()) for a in anchor]
    return [
        s for s in itertools.combinations(range(n), d)
        if any(all(v in A for v, A in zip(p, sets)) for p in itertools.permutations(s))
    ]


def random_family(rng, n, d):
    """Each d-subset kept with one seeded probability; never empty."""
    subsets = list(itertools.combinations(range(n), d))
    keep = rng.uniform(size=len(subsets)) < rng.uniform()
    keep[int(rng.integers(len(subsets)))] = True
    return [s for s, k in zip(subsets, keep) if k]


def basis_polynomial(n, d, bases):
    """The normalized basis generating polynomial of a family."""
    basis = subset_basis(n, d)
    coeffs = np.zeros(basis.size)
    coeffs[[basis.rank(b) for b in bases]] = 1.0
    return normalize_at_ones(MultiAffinePoly(basis, coeffs))
