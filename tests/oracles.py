"""Brute-force reference implementations for pinning expected values.

Everything here is deliberately naive: full path enumeration, textbook
Gaussian elimination, dictionary joints. None of it shares code with the
library's dynamic programmes, so agreement between the two is evidence, not
tautology.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def eliminate_stationary(matrix):
    """Solve mu (P - I) = 0 with sum(mu) = 1 by Gaussian elimination.

    Runs over exact rationals built from the float entries, so the result is
    the exact stationary vector of the represented matrix.
    """
    n = len(matrix)
    rows = []
    for i in range(n - 1):
        rows.append([Fraction(matrix[j][i]) - (1 if i == j else 0) for j in range(n)]
                    + [Fraction(0)])
    rows.append([Fraction(1)] * n + [Fraction(1)])
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col]
        rows[col] = [v / inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [float(rows[i][n]) for i in range(n)]


def realisable_words(matrix, n):
    """All state-index words of length n with positive transition products."""
    size = len(matrix)
    out = []

    def extend(path):
        if len(path) == n:
            out.append(tuple(path))
            return
        for j in range(size):
            if matrix[path[-1]][j] > 0:
                extend(path + [j])

    for i in range(size):
        extend([i])
    return out


def word_probability(matrix, mu, word):
    p = mu[word[0]]
    for a, b in zip(word, word[1:]):
        p *= matrix[a][b]
    return p


def entropy_bits(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def block_entropy_by_enumeration(matrix, mu, n):
    return entropy_bits([word_probability(matrix, mu, w)
                         for w in realisable_words(matrix, n)])


def lumped_word_probs(matrix, mu, blocks, n):
    """Joint over block words of length n, by enumerating state words."""
    joint = {}
    for w in realisable_words(matrix, n):
        img = tuple(blocks[x] for x in w)
        joint[img] = joint.get(img, 0.0) + word_probability(matrix, mu, w)
    return joint


def lumped_block_entropy_by_enumeration(matrix, mu, blocks, n):
    return entropy_bits(list(lumped_word_probs(matrix, mu, blocks, n).values()))


def conditional_entropy_by_definition(joint):
    """H(col | row) as the row-mass weighted average of row entropies."""
    total = 0.0
    for row in joint:
        mass = sum(row)
        if mass <= 0:
            continue
        total += mass * entropy_bits([p / mass for p in row])
    return total


def upper_bound_by_enumeration(matrix, mu, blocks, n):
    """H(next block | previous n blocks) from enumerated joints."""
    num = lumped_word_probs(matrix, mu, blocks, n + 1)
    den = lumped_word_probs(matrix, mu, blocks, n)
    total = 0.0
    for w, pw in den.items():
        if pw <= 1e-15:
            continue
        conds = [p / pw for img, p in num.items() if img[:n] == w]
        total += pw * entropy_bits(conds)
    return total


def lower_bound_by_enumeration(matrix, mu, blocks, n):
    """H(next block | previous n-1 blocks and the exact start state)."""
    size = len(matrix)
    joint = {}
    for w in realisable_words(matrix, n + 1):
        key = (w[0], tuple(blocks[x] for x in w[1:n]))
        probs = joint.setdefault(key, {})
        b = blocks[w[n]]
        probs[b] = probs.get(b, 0.0) + word_probability(matrix, mu, w)
    total = 0.0
    for probs in joint.values():
        mass = sum(probs.values())
        if mass <= 1e-15:
            continue
        total += mass * entropy_bits([p / mass for p in probs.values()])
    return total


def preimage_by_enumeration(matrix, blocks, word):
    """All realisable state words with the given block-index image."""
    size = len(matrix)
    out = []

    def extend(path):
        depth = len(path)
        if depth == len(word):
            out.append(tuple(path))
            return
        for j in range(size):
            if blocks[j] == word[depth] and matrix[path[-1]][j] > 0:
                extend(path + [j])

    for i in range(size):
        if blocks[i] == word[0]:
            extend([i])
    return out


def kappa_by_path_pairs(matrix, blocks, depth_cap):
    """Split-merge index by exhaustive path-pair search up to the cap.

    Enumerates realisable windows of total length d + 2 for d = 1..depth_cap,
    groups them by (start, block image of the middle, end) and reports the
    first d with a group containing two distinct middles. None means no
    witness exists up to the cap, which certifies that none exists at all.
    """
    for d in range(1, depth_cap + 1):
        groups = {}
        for w in realisable_words(matrix, d + 2):
            mid = w[1:-1]
            key = (w[0], tuple(blocks[x] for x in mid), w[-1])
            seen = groups.setdefault(key, set())
            seen.add(mid)
            if len(seen) >= 2:
                return d
    return None


def minimal_windows(matrix, blocks, kappa):
    """Every witness window of length kappa, by enumerating state words.

    Groups the realisable words of length kappa + 2 by (first state, block
    image of the middle, last state). Returns a dict from each such
    (check, middle block word, hat) with at least two distinct realisable
    middles to the sorted list of those middles.
    """
    groups = {}
    for w in realisable_words(matrix, kappa + 2):
        mid = w[1:-1]
        groups.setdefault((w[0], tuple(blocks[x] for x in mid), w[-1]), set()).add(mid)
    return {key: sorted(mids) for key, mids in groups.items() if len(mids) >= 2}


def markov_order_violation(matrix, mu, blocks, k, horizon, tol=1e-9):
    """First conditional that distinguishes an m-history from its k-suffix."""
    joints = {m: lumped_word_probs(matrix, mu, blocks, m)
              for m in range(1, horizon + 2)}
    for m in range(k + 1, horizon + 1):
        for w, pw in joints[m + 1].items():
            cond = w[:-1]
            pc = joints[m].get(cond, 0.0)
            if pc <= 1e-15:
                continue
            suffix = cond[-k:]
            ps = joints[k].get(suffix, 0.0)
            if ps <= 1e-15:
                continue
            full = pw / pc
            short = joints[k + 1].get(suffix + (w[-1],), 0.0) / ps
            if abs(full - short) > tol:
                return (w, full, short)
    return None


def random_sparse_chain(rng, n_states, n_blocks, extra_edges=2):
    """Seeded sparse irreducible aperiodic chain with a surjective lumping.

    A random cycle guarantees irreducibility, one self-loop guarantees
    aperiodicity, extra random edges add branching; weights are uniform over
    each state's out-edges. Returns (matrix, block index list).
    """
    perm = list(rng.permutation(n_states))
    edges = {(perm[i], perm[(i + 1) % n_states]) for i in range(n_states)}
    edges.add((perm[0], perm[0]))
    for _ in range(extra_edges * n_states):
        edges.add((int(rng.integers(n_states)), int(rng.integers(n_states))))
    matrix = [[0.0] * n_states for _ in range(n_states)]
    for i in range(n_states):
        targets = sorted(j for (a, j) in edges if a == i)
        for j in targets:
            matrix[i][j] = 1.0 / len(targets)
    blocks = [i % n_blocks for i in range(n_states)]
    rng.shuffle(blocks)
    return matrix, [int(b) for b in blocks]


def first_strong_violation(matrix, mu, blocks, k, tol=1e-9):
    """First start state whose next-block law departs from its start block's.

    Conditions on the exact start state x and the k-1 following blocks w and
    compares P(next | x, w) with P(next | block of x, w), visiting words in
    lexicographic order, then start blocks, then start states in state order,
    then next blocks; next blocks of zero probability given x are skipped, as
    are conditioning events of joint mass at most 1e-15. Returns
    (x, w, next block, P(next | x, w), P(next | block, w)) or None.
    """
    n_blocks = max(blocks) + 1
    joint = {}  # (x, w) -> {next block: probability}
    for path in realisable_words(matrix, k + 1):
        key = (path[0], tuple(blocks[x] for x in path[1:k]))
        probs = joint.setdefault(key, {})
        y = blocks[path[k]]
        probs[y] = probs.get(y, 0.0) + word_probability(matrix, mu, path)
    for w in itertools.product(range(n_blocks), repeat=k - 1):
        for b in range(n_blocks):
            members = [x for x in range(len(matrix)) if blocks[x] == b]
            rows = {x: joint[(x, w)] for x in members
                    if sum(joint.get((x, w), {}).values()) > 1e-15}
            den = sum(sum(r.values()) for r in rows.values())
            if den <= 1e-15:
                continue
            block_cond = [sum(r.get(y, 0.0) for r in rows.values()) / den
                          for y in range(n_blocks)]
            for x, r in rows.items():
                mass = sum(r.values())
                for y in range(n_blocks):
                    p = r.get(y, 0.0) / mass
                    if p > 0 and abs(p - block_cond[y]) > tol:
                        return (x, w, y, p, block_cond[y])
    return None


def first_weak_violation(matrix, mu, blocks, k, horizon, tol=1e-9):
    """First m-history whose next-block law departs from its k-suffix's.

    Visits history lengths m = k+1..horizon, then histories of joint mass
    above 1e-15 in lexicographic order, then every next block, including
    those of probability zero. Returns (history, next block,
    P(next | history), P(next | k-suffix)) or None.
    """
    n_blocks = max(blocks) + 1
    joints = {m: lumped_word_probs(matrix, mu, blocks, m)
              for m in range(k, horizon + 2)}
    for m in range(k + 1, horizon + 1):
        for w in sorted(joints[m]):
            pw = joints[m][w]
            ps = joints[k].get(w[-k:], 0.0)
            if pw <= 1e-15 or ps <= 1e-15:
                continue
            for y in range(n_blocks):
                full = joints[m + 1].get(w + (y,), 0.0) / pw
                short = joints[k + 1].get(w[-k:] + (y,), 0.0) / ps
                if abs(full - short) > tol:
                    return (w, y, full, short)
    return None


def preimage_count_by_matrix(matrix, blocks, word):
    """Realisable state words behind a block-index word, as a chain of exact
    products: a row vector of Python ints times the 0/1 edge submatrix from
    one block to the next, in object dtype so nothing overflows."""
    adj = np.array([[int(v > 0) for v in row] for row in matrix], dtype=object)
    members = [[x for x in range(len(matrix)) if blocks[x] == b]
               for b in range(max(blocks) + 1)]
    counts = np.ones(len(members[word[0]]), dtype=object)
    for a, b in zip(word, word[1:]):
        counts = counts.dot(adj[np.ix_(members[a], members[b])])
    return int(counts.sum())


def blackwell_reference(transition, stationary, indicator, steps, burn_in, seed,
                        batches=50):
    """The belief filter with one numpy scoring call per step.

    A frozen copy of the library's original per-step loop, kept to pin the
    faster filter bit for bit: same draws, same scores, same batch means.
    Takes the transition matrix, the stationary vector and the (states x
    blocks) 0/1 block indicator; returns (estimate, stderr).
    """
    def plogp(p):
        p = p[p > 0]
        if p.size == 0:
            return 0.0
        return float(-(p * np.log2(p)).sum())

    rng = np.random.default_rng(seed)
    P, B = transition, indicator
    w = np.array(stationary, dtype=float)
    uniforms = rng.random(steps)
    vals = np.empty(steps - burn_in)
    for t in range(steps):
        pred = w @ P
        r = pred @ B
        if t >= burn_in:
            vals[t - burn_in] = plogp(r)
        cum = np.cumsum(r)
        y = int(np.searchsorted(cum, uniforms[t] * cum[-1], side="right"))
        y = min(y, B.shape[1] - 1)
        if r[y] < 1e-300:
            raise ZeroDivisionError("drawn block has underflowed mass")
        w = pred * B[:, y] / r[y]

    estimate = float(vals.mean())
    usable = (len(vals) // batches) * batches
    means = vals[:usable].reshape(batches, -1).mean(axis=1)
    stderr = float(means.std(ddof=1) / math.sqrt(batches))
    return estimate, stderr
