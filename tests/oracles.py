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


def faint_sparse_chain(rng, n_states, n_blocks, faint_share=0.3):
    """``random_sparse_chain`` with about ``faint_share`` of its edges scaled
    by 1e-4 to 1e-8 before the rows are renormalised, so that some words'
    joint masses fall at or below the library's mass threshold."""
    matrix, blocks = random_sparse_chain(rng, n_states, n_blocks)
    weights = np.array(matrix)
    faint = (weights > 0) & (rng.random(weights.shape) < faint_share)
    weights[faint] *= 10.0 ** -rng.uniform(4, 8, size=int(faint.sum()))
    return (weights / weights.sum(axis=1, keepdims=True)).tolist(), blocks


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


def sample_indices_reference(chain, length, rho, seed):
    """Frozen copy of the library's original trajectory sampler, which
    rebuilt every row's cumulative sums for each seed."""
    from bisect import bisect_right

    rng = np.random.default_rng(seed)
    u = rng.random(length)
    start_cum = np.cumsum(rho).tolist()
    row_cum = [np.cumsum(row).tolist() for row in chain.transition]
    last = chain.n - 1
    x = min(bisect_right(start_cum, u[0] * start_cum[-1]), last)
    out = np.empty(length, dtype=np.int64)
    out[0] = x
    for t in range(1, length):
        cum = row_cum[x]
        x = min(bisect_right(cum, u[t] * cum[-1]), last)
        out[t] = x
    return out


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


def chain_entropy_rate_by_loop(chain):
    """The chain's entropy rate by the library's original per-state loop:
    sum_x mu(x) H(P(x, .)), one row entropy at a time. The row entropy is
    this oracle's own copy, so a fault in the library's cannot hide here."""
    def plogp(p):  # -sum p*log2(p) over the positive entries, as a float
        return float(-(p[p > 0] * np.log2(p[p > 0])).sum()) + 0.0

    mu, P = chain.stationary, chain.transition
    return float(sum(mu[x] * plogp(P[x]) for x in range(chain.n)))


def minimal_pair_paths(chain, lumping):
    """Split-merge index and every pair path of that length.

    A frozen copy of the library's original pair search, without its cap on
    the number of paths: a breadth-first search over ordered distinct
    same-block state pairs from the start pairs (those with a common
    predecessor) to the end pairs (with a common successor), then a
    recursive walk back from the end pairs at the last level. Pair paths
    come back ordered by their last pair, then by the pair before it, and so
    on. Returns ``(math.inf, [])`` when no start pair reaches an end pair.
    """
    adj = chain.adjacency
    A = adj.astype(np.float32)
    of_state = lumping.of_state
    pairs = (of_state[:, None] == of_state[None, :]) & ~np.eye(chain.n, dtype=bool)
    ends = pairs & (A @ A.T > 0)
    frontier = pairs & (A.T @ A > 0)
    cap = int(pairs.sum())  # ordered same-block pairs: no finite depth exceeds it
    dist = np.zeros((chain.n, chain.n), dtype=np.min_scalar_type(cap))
    kappa = 1
    while frontier.any():
        dist[frontier] = kappa
        if (frontier & ends).any():
            break
        frontier = pairs & (dist == 0) & (A.T @ frontier @ A > 0)
        kappa += 1
    else:
        return math.inf, []
    paths = []

    def backward(path):
        u, v = path[0]
        d = dist[u, v]
        if d == 1:
            paths.append(path)
            return
        pu, pv = np.flatnonzero(adj[:, u]), np.flatnonzero(adj[:, v])
        for i, j in np.argwhere(dist[np.ix_(pu, pv)] == d - 1):
            backward([(int(pu[i]), int(pv[j]))] + path)

    for u, v in np.argwhere(ends & (dist == kappa)):
        backward([(int(u), int(v))])
    return kappa, paths


def split_merge_by_enumeration(chain, lumping):
    """The split-merge index and witness from every minimal pair path.

    A frozen copy of the library's original key loop: each pair path gives
    two state paths, ordered so that ``a < b``, with the smallest common
    predecessor of their first states as check and the smallest common
    successor of their last states as hat; the smallest ``(a, b, check,
    hat)`` is the witness.
    """
    from lumpchain.lumping import SplitMergeResult, SplitMergeWitness

    kappa, ppaths = minimal_pair_paths(chain, lumping)
    if not math.isfinite(kappa):
        return SplitMergeResult(kappa=math.inf, witness=None)
    adj = chain.adjacency
    best = None
    for ppath in ppaths:
        a = tuple(p[0] for p in ppath)
        b = tuple(p[1] for p in ppath)
        if b < a:
            a, b = b, a
        check = int(np.flatnonzero(adj[:, a[0]] & adj[:, b[0]])[0])
        hat = int(np.flatnonzero(adj[a[-1]] & adj[b[-1]])[0])
        key = (a, b, check, hat)
        if best is None or key < best:
            best = key
    a, b, check, hat = best
    return SplitMergeResult(kappa=kappa, witness=SplitMergeWitness(
        kappa=kappa,
        check_state=chain.states[check],
        hat_state=chain.states[hat],
        lumped_word=tuple(lumping.blocks[lumping.of_state[x]] for x in a),
        path_a=tuple(chain.states[x] for x in a),
        path_b=tuple(chain.states[x] for x in b)))


def loss_bound_by_enumeration(chain, lumping, scores=None):
    """The loss bound by scoring every minimal window from its enumerated paths.

    A frozen copy of the library's original per-window loop, kept to pin the
    matrix-scored bound bit for bit: same windows (built from every minimal
    pair path of :func:`minimal_pair_paths`), same probabilities,
    same ``(-score, check, word, hat)`` choice. Returns a ``LossBound`` or
    None; a dict passed as ``scores`` receives every window's score, keyed by
    ``(check, word, hat)``. The window entropy is this oracle's own copy of
    the library's expression.
    """
    from lumpchain.lumping import LossBound, SplitMergeWitness

    def plogp(p):  # -sum p*log2(p) over the positive entries, as a float
        return float(-(p[p > 0] * np.log2(p[p > 0])).sum()) + 0.0

    def _window_paths(chain, lumping, check, word, hat):
        adj = chain.adjacency
        P = chain.transition
        mu = chain.stationary
        out = []

        def extend(path, prob):
            depth = len(path)
            if depth == len(word):
                if adj[path[-1], hat]:
                    out.append((path, prob * P[path[-1], hat]))
                return
            for x in lumping.member_indices[word[depth]]:
                prev = path[-1] if path else check
                if adj[prev, x]:
                    extend(path + (int(x),), prob * P[prev, int(x)])

        extend((), float(mu[check]))
        return out

    kappa, ppaths = minimal_pair_paths(chain, lumping)
    if not math.isfinite(kappa):
        return None
    adj = chain.adjacency
    windows = {}  # word -> (check x hat) mask
    for ppath in ppaths:
        (u0, v0), (u1, v1) = ppath[0], ppath[-1]
        word = tuple(int(lumping.of_state[u]) for u, _ in ppath)
        mask = windows.setdefault(word, np.zeros_like(adj))
        mask[np.ix_(adj[:, u0] & adj[:, v0], adj[u1] & adj[v1])] = True
    triples = sorted((int(check), word, int(hat)) for word, mask in windows.items()
                     for check, hat in np.argwhere(mask))

    best = None
    for check, word, hat in triples:
        paths = _window_paths(chain, lumping, check, word, hat)
        if len(paths) < 2:
            continue
        probs = np.array([p for _, p in paths])
        loss = plogp(probs / probs.sum())
        order = sorted(range(len(paths)), key=lambda i: (-paths[i][1], paths[i][0]))
        top = order[0]
        alpha = float(paths[top][1]) / (2.0 * (kappa + 2))
        score = alpha * loss
        if scores is not None:
            scores[check, word, hat] = score
        other = min(p for i, (p, _) in enumerate(paths) if p != paths[top][0])
        key = (-score, check, word, hat)
        if best is None or key < best[0]:
            witness = SplitMergeWitness(
                kappa=kappa,
                check_state=chain.states[check],
                hat_state=chain.states[hat],
                lumped_word=tuple(lumping.blocks[b] for b in word),
                path_a=tuple(chain.states[i] for i in paths[top][0]),
                path_b=tuple(chain.states[i] for i in other))
            best = (key, LossBound(witness=witness, loss_entropy=loss, alpha=alpha,
                                   rate_lower_bound=alpha * loss,
                                   growth_constant=2.0 ** alpha))
    return None if best is None else best[1]


def transition_v1(matrix, zero_threshold=1e-15):
    """Frozen copy of the library's original ``build_chain`` arithmetic on a
    valid matrix: every entry at or below a positive ``zero_threshold`` set to
    0.0, then each row divided by its sum. The refusals of invalid input are
    left out; tests pin them on their own."""
    P = np.array(np.asarray(matrix), dtype=float)
    if zero_threshold > 0:
        P[P <= zero_threshold] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    return P


def stationary_v1(P):
    """Frozen copy of the library's original ``_solve_stationary``: the system
    ``P.T - I`` with its last row set to ones, in row-major layout, solved by
    ``np.linalg.solve``, clipped at 0 and renormalised."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.clip(np.linalg.solve(A, b), 0.0, None)
    return mu / mu.sum()


def connectivity_by_bfs(chain):
    """Connectivity report by Python set breadth-first searches.

    A frozen copy of the library's original loops, kept to pin the boolean
    frontier levels: forward and backward reachability from state 0, then
    the gcd of ``level[u] + 1 - level[v]`` over the edges reachable from it.
    """
    from lumpchain.chain import ConnectivityReport

    def _reachable(succ, start):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    v = int(v)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    n = chain.n
    adj = chain.adjacency
    succ = tuple(np.flatnonzero(adj[i]) for i in range(n))
    pred = tuple(np.flatnonzero(adj[:, j]) for j in range(n))
    fwd = _reachable(succ, 0)
    bwd = _reachable(pred, 0)
    irreducible = len(fwd) == n and len(bwd) == n

    level = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                v = int(v)
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in fwd:
        for v in succ[u]:
            v = int(v)
            if v in level:
                g = math.gcd(g, level[u] + 1 - level[v])
    period = abs(g)
    return ConnectivityReport(irreducible=irreducible,
                              aperiodic=period == 1,
                              period=period)


def _forward_levels(chain, lumping, rho, n_symbols, first_is_current):
    """Frozen copy of the library's original single-start forward pass:
    every level's live word ids and next-block joints."""
    from lumpchain.entropy import MASS_EPS

    nb = lumping.n_blocks
    P = chain.transition
    B = lumping.indicator
    mass = np.asarray(rho, dtype=float)[None, :]
    live = mass.sum(axis=1) > MASS_EPS  # the empty word obeys the mass rule too
    ids, mass = np.zeros(1, dtype=np.int64)[live], mass[live]
    pushed = mass if first_is_current else mass @ P
    levels = [(ids, pushed @ B)]
    for _ in range(n_symbols):
        words, blocks = np.nonzero(levels[-1][1] > MASS_EPS)  # row-major: lexicographic
        ids, mass = ids[words] * nb + blocks, pushed[words]
        mass[lumping.of_state != blocks[:, None]] = 0.0
        pushed = mass @ P
        levels.append((ids, pushed @ B))
    return tuple(levels)


def lower_levels_by_start(chain, lumping, lower_horizon):
    """The lower tables by one forward pass per start state x, from mass
    mu(x), to ``lower_horizon`` - 1 blocks: the library's original loop.
    Entry x holds every level of start x, ids without the start digit."""
    mu, eye = chain.stationary, np.eye(chain.n)
    return [_forward_levels(chain, lumping, mu[x] * eye[x], lower_horizon - 1, False)
            for x in range(chain.n)]


def conditional_entropy_masked(joint):
    """Frozen copy of the library's original H(column | row) of a joint
    whose rows all have positive mass: the log taken only where the
    conditional is positive."""
    cond = joint / joint.sum(axis=1, keepdims=True)
    np.log2(cond, out=cond, where=cond > 0)
    return float(-np.vdot(joint, cond)) + 0.0  # + 0.0 turns -0.0 into 0.0


def block_entropies_masked(laws):
    """Frozen copy of the library's original row-wise -sum p*log2(p) over
    the positive entries: a masked log over the whole array, then the rows
    summed in groups with the same number of positive entries."""
    pos = laws > 0
    terms = np.zeros_like(laws)
    np.log2(laws, out=terms, where=pos)
    terms *= laws
    width = pos.sum(axis=1)
    out = np.zeros(len(laws))
    for k in set(width.tolist()) - {0}:
        rows = width == k
        out[rows] = -terms[rows][pos[rows]].reshape(-1, k).sum(axis=1)
    return out


def max_times_by_state(V, T):
    """Frozen copy of the library's original max-times product: one pass per
    middle state j that some row reaches, over the nonzeros of ``T[j]``."""
    out = np.zeros((V.shape[0], T.shape[1]))
    for j in np.flatnonzero(V.any(axis=0)):
        nz = np.flatnonzero(T[j])
        out[:, nz] = np.maximum(out[:, nz], V[:, j, None] * T[j, nz])
    return out


def rate_bounds_by_start(chain, lumping, n):
    """Horizon-n (lower, upper) rate bounds with the lower edge summed start
    by start over ``lower_levels_by_start``, as the library first did."""
    per_start = lower_levels_by_start(chain, lumping, n)
    upper = _forward_levels(chain, lumping, chain.stationary, n, True)[n][1]
    return (sum(conditional_entropy_masked(levels[n - 1][1]) for levels in per_start),
            conditional_entropy_masked(upper))


def strong_verdict_by_start(chain, lumping, k, tol=1e-9):
    """``check_strong_lumpable`` as first written over the per-start tables:
    the start digit comes from ``np.repeat`` and the rows from
    ``np.concatenate``; the bounds from ``rate_bounds_by_start``."""
    from lumpchain.lumping import LumpabilityCounterexample, LumpabilityVerdict

    nb = lumping.n_blocks
    per_start = [levels[k - 1] for levels in lower_levels_by_start(chain, lumping, k)]
    lower, upper = rate_bounds_by_start(chain, lumping, k)
    start = np.repeat(np.arange(chain.n), [len(ids) for ids, _ in per_start])
    word, joint = (np.concatenate(parts) for parts in zip(*per_start))
    key = word * nb + lumping.of_state[start]  # (word, start block)
    groups, inv = np.unique(key, return_inverse=True)  # sum the rows of each group
    block_joint = np.zeros((len(groups), nb))
    np.add.at(block_joint, inv, joint)
    block_cond = (block_joint / block_joint.sum(axis=1, keepdims=True))[
        np.searchsorted(groups, key)]
    cond = joint / joint.sum(axis=1, keepdims=True)
    bad_row, bad_y = np.nonzero((cond > 0.0) & (np.abs(cond - block_cond) > tol))
    witness = None
    if bad_row.size:
        first = np.lexsort((bad_y, start[bad_row], key[bad_row]))[0]
        r, y = bad_row[first], bad_y[first]
        witness = LumpabilityCounterexample(
            conditioning=(chain.states[start[r]],) + tuple(
                lumping.blocks[b] for b in np.unravel_index(word[r], (nb,) * (k - 1))),
            symbol=lumping.blocks[y],
            prob_a=float(cond[r, y]),
            prob_b=float(block_cond[r, y]))
    return LumpabilityVerdict(order_k=k,
                              strong=witness is None,
                              witness=witness,
                              rate_bound_lower=lower,
                              rate_bound_upper=upper)


# ---------------------------------------------------------------------------
# CLI output as first written: hand-built payloads and codec, kept verbatim


def _kappa_to_json_v1(kappa):
    return "infinity" if math.isinf(kappa) else int(kappa)


def _witness_to_dict_v1(w):
    return {"kappa": w.kappa, "check_state": w.check_state, "hat_state": w.hat_state,
            "lumped_word": list(w.lumped_word),
            "path_a": list(w.path_a), "path_b": list(w.path_b)}


def _loss_to_dict_v1(b):
    return {"witness": _witness_to_dict_v1(b.witness), "loss_entropy": b.loss_entropy,
            "alpha": b.alpha, "rate_lower_bound": b.rate_lower_bound,
            "growth_constant": b.growth_constant}


def _report_to_dict_v1(report):
    return {
        "schema_version": "1",
        "kappa": _kappa_to_json_v1(report.kappa),
        "se": report.se,
        "sfs": {str(k): v for k, v in report.sfs.items()},
        "strong": {str(k): v for k, v in report.strong.items()},
        "weak": {str(k): {"verdict": v.verdict, "horizon": v.horizon}
                 for k, v in report.weak.items()},
        "chain_rate": report.chain_rate,
        "bounds": [{"horizon": b.horizon, "lower": b.lower, "upper": b.upper}
                   for b in report.bounds],
        "loss_bound": None if report.loss_bound is None else _loss_to_dict_v1(report.loss_bound),
        "blackwell": None if report.blackwell is None else {
            "estimate": report.blackwell.estimate,
            "stderr": report.blackwell.stderr,
            "caveat": report.blackwell.caveat},
    }


def _dump_json_v1(obj):
    import json

    return json.dumps(obj, indent=2, sort_keys=True)


_WEAK_CAVEAT_V1 = "no claim beyond the horizon"


def _format_report_v1(report, format="human"):
    if format == "json":
        return _dump_json_v1(_report_to_dict_v1(report))
    lines = []
    kappa = "infinity" if math.isinf(report.kappa) else str(int(report.kappa))
    lines.append(f"split-merge index: {kappa}")
    lines.append(f"single entry: {'yes' if report.se else 'no'}")
    for k in sorted(report.sfs):
        lines.append(f"single forward {k}-sequence: {'yes' if report.sfs[k] else 'no'}")
    for k in sorted(report.strong):
        lines.append(f"strongly {k}-lumpable: {'yes' if report.strong[k] else 'no'}")
    for k in sorted(report.weak):
        v = report.weak[k]
        word = "yes" if v.verdict else "no"
        lines.append(f"weakly {k}-lumpable: {word} up to horizon {v.horizon} "
                     f"({_WEAK_CAVEAT_V1})")
    lines.append(f"chain entropy rate: {report.chain_rate:.6f} bits/step")
    for b in report.bounds:
        lines.append(f"lumped rate bounds n={b.horizon}: "
                     f"[{b.lower:.6f}, {b.upper:.6f}] bits/step")
    if report.loss_bound is None:
        lines.append("entropy loss bound: none (no split-merge witness)")
    else:
        lb = report.loss_bound
        lines.append(f"entropy loss bound: {lb.rate_lower_bound:.6g} bits/step "
                     f"(window entropy {lb.loss_entropy:.6g}, alpha {lb.alpha:.6g}, "
                     f"growth constant {lb.growth_constant:.6g})")
        w = lb.witness
        lines.append(f"  witness: {w.check_state} > {'-'.join(w.path_a)} > {w.hat_state}"
                     f"  vs  {w.check_state} > {'-'.join(w.path_b)} > {w.hat_state}"
                     f"  over blocks {'-'.join(w.lumped_word)}")
    if report.blackwell is not None:
        bw = report.blackwell
        lines.append(f"blackwell estimate: {bw.estimate:.6f} +/- {bw.stderr:.6f} "
                     f"bits/step ({bw.caveat})")
    return "\n".join(lines) + "\n"


def _cmd_v1(args):
    import sys

    from lumpchain import entropy as ent
    from lumpchain import lumping as lp
    from lumpchain import simulate as sim
    from lumpchain.chain import reverse_chain
    from lumpchain.cli import (AnalysisConfig, chain_to_model_dict, export_dot,
                               parse_model, run_analysis)

    def _emit(args, human, payload):
        if args.format == "json":
            print(_dump_json_v1(payload))
        else:
            sys.stdout.write(human)

    chain, lumping = parse_model(
        args.model, allow_trivial=True if args.allow_trivial_lumping else None)

    if args.command == "analyze":
        config = AnalysisConfig(
            horizons=tuple(args.horizons), k_range=tuple(args.k_range),
            weak_horizon=args.weak_horizon, tol=args.tol,
            blackwell_steps=args.blackwell_steps,
            blackwell_burn_in=args.blackwell_burn_in,
            blackwell_seed=args.seed)
        report = run_analysis(chain, lumping, config)
        sys.stdout.write(_format_report_v1(report, args.format)
                         if args.format == "human"
                         else _format_report_v1(report, "json") + "\n")
    elif args.command == "kappa":
        res = lp.split_merge_index(chain, lumping)
        kappa = "infinity" if math.isinf(res.kappa) else int(res.kappa)
        human = f"split-merge index: {kappa}\n"
        if res.witness is not None:
            w = res.witness
            human += (f"witness: {w.check_state} > {'-'.join(w.path_a)} > {w.hat_state}"
                      f"  vs  {w.check_state} > {'-'.join(w.path_b)} > {w.hat_state}\n")
        _emit(args, human, {"kappa": kappa,
                            "witness": None if res.witness is None
                            else _witness_to_dict_v1(res.witness)})
    elif args.command == "check-se":
        res = lp.check_single_entry(chain, lumping)
        human = f"single entry: {'yes' if res.holds else 'no'}\n"
        if res.violation is not None:
            v = res.violation
            human += (f"violation: state {v.state} enters block {v.block} at both "
                      f"{v.successor_a} and {v.successor_b}\n")
        _emit(args, human, {"holds": res.holds,
                            "violation": None if res.violation is None else {
                                "state": res.violation.state,
                                "block": res.violation.block,
                                "successor_a": res.violation.successor_a,
                                "successor_b": res.violation.successor_b}})
    elif args.command == "check-sfs":
        res = lp.check_sfs(chain, lumping, args.k)
        human = f"single forward {args.k}-sequence: {'yes' if res.holds else 'no'}\n"
        payload = {"k": args.k, "holds": res.holds, "violation": None}
        if res.violation is not None:
            v = res.violation
            payload["violation"] = {
                "block_word": list(v.block_word), "start_block": v.start_block,
                "start_a": v.start_a, "path_a": list(v.path_a),
                "start_b": v.start_b, "path_b": list(v.path_b)}
            human += (f"violation: word {'-'.join(v.block_word)} from block "
                      f"{v.start_block} admits {'-'.join(v.path_a)} (from {v.start_a}) "
                      f"and {'-'.join(v.path_b)} (from {v.start_b})\n")
        _emit(args, human, payload)
    elif args.command == "check-strong":
        res = lp.check_strong_lumpable(chain, lumping, args.k, args.tol)
        human = f"strongly {args.k}-lumpable: {'yes' if res.strong else 'no'}\n"
        human += (f"rate bounds at n={args.k}: [{res.rate_bound_lower:.6f}, "
                  f"{res.rate_bound_upper:.6f}] bits/step\n")
        _emit(args, human, {"k": args.k, "strong": res.strong,
                            "rate_bound_lower": res.rate_bound_lower,
                            "rate_bound_upper": res.rate_bound_upper,
                            "witness": None if res.witness is None else {
                                "conditioning": list(res.witness.conditioning),
                                "symbol": res.witness.symbol,
                                "prob_a": res.witness.prob_a,
                                "prob_b": res.witness.prob_b}})
    elif args.command == "check-weak":
        res = lp.check_weak_lumpable(chain, lumping, args.k, args.horizon, args.tol)
        v = res.weak_up_to_horizon
        human = (f"weakly {args.k}-lumpable: {'yes' if v.verdict else 'no'} "
                 f"up to horizon {v.horizon} ({_WEAK_CAVEAT_V1})\n")
        _emit(args, human, {"k": args.k, "verdict": v.verdict, "horizon": v.horizon,
                            "caveat": _WEAK_CAVEAT_V1,
                            "conditional_entropies": list(res.conditional_entropies),
                            "witness": None if res.witness is None else {
                                "conditioning": list(res.witness.conditioning),
                                "symbol": res.witness.symbol,
                                "prob_a": res.witness.prob_a,
                                "prob_b": res.witness.prob_b}})
    elif args.command == "bounds":
        b = ent.lumped_rate_bounds(chain, lumping, args.n)
        loss = ent.conditional_entropy_rate_estimate(chain, lumping, args.n)
        human = (f"lumped rate bounds n={args.n}: [{b.lower:.6f}, {b.upper:.6f}] "
                 f"bits/step; loss in [{loss.loss_lower:.6f}, {loss.loss_upper:.6f}]\n")
        _emit(args, human, {"horizon": b.horizon, "lower": b.lower, "upper": b.upper,
                            "loss_lower": loss.loss_lower, "loss_upper": loss.loss_upper})
    elif args.command == "loss-bound":
        lb = lp.entropy_loss_bound(chain, lumping)
        if lb is None:
            _emit(args, "entropy loss bound: none (no split-merge witness)\n",
                  {"loss_bound": None})
        else:
            human = (f"entropy loss bound: {lb.rate_lower_bound:.6g} bits/step "
                     f"(window entropy {lb.loss_entropy:.6g}, alpha {lb.alpha:.6g})\n")
            _emit(args, human, {"loss_bound": _loss_to_dict_v1(lb)})
    elif args.command == "blackwell":
        bw = ent.blackwell_entropy_estimate(chain, lumping, args.steps,
                                            args.burn_in, args.seed)
        human = (f"blackwell estimate: {bw.estimate:.6f} +/- {bw.stderr:.6f} "
                 f"bits/step ({bw.caveat})\n")
        _emit(args, human, {"estimate": bw.estimate, "stderr": bw.stderr,
                            "caveat": bw.caveat})
    elif args.command == "simulate":
        rows = sim.empirical_growth(chain, lumping, args.length, args.seeds)
        human = "".join(
            f"n={r.n}: max count {r.max_count}, geometric mean growth "
            f"{r.geo_mean_growth:.6f}\n" for r in rows)
        _emit(args, human, {"checkpoints": [
            {"n": r.n, "counts": list(r.counts), "max_count": r.max_count,
             "geo_mean_growth": r.geo_mean_growth} for r in rows]})
    elif args.command == "export-dot":
        sys.stdout.write(export_dot(chain, lumping))
    elif args.command == "reverse":
        rev = reverse_chain(chain)
        payload = chain_to_model_dict(rev, lumping)
        print(_dump_json_v1(payload))
    else:  # pragma: no cover
        raise AssertionError(f"unhandled command {args.command!r}")


def capture_cli(entry, argv):
    """Run ``entry(argv)`` and return (exit code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


def _main_v1(argv):
    import sys

    from lumpchain.cli import _build_parser
    from lumpchain.errors import LumpchainError, ValidationError

    args = _build_parser().parse_args(argv)
    try:
        _cmd_v1(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LumpchainError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    return 0


def cli_output_v1(argv):
    """(exit code, stdout, stderr) of ``lumpchain.cli.main(argv)`` as first
    written, with every subcommand's payload and human line built by hand.
    The argument parser, model parser and library calls are the library's."""
    return capture_cli(_main_v1, argv)


def first_single_entry_violation(chain, lumping):
    """The single-entry verdict by a loop over every (state, block).

    A frozen copy of the library's original double loop, kept to pin the
    one-product count: the first (state, block) in row-major order with two
    edges into the block, and its two lowest-index successors there.
    """
    from lumpchain.lumping import SingleEntryResult, SingleEntryViolation

    adj = chain.adjacency
    for x in range(chain.n):
        for b, members in enumerate(lumping.member_indices):
            hits = members[adj[x, members]]
            if hits.size > 1:
                return SingleEntryResult(False, SingleEntryViolation(
                    state=chain.states[x],
                    block=lumping.blocks[b],
                    successor_a=chain.states[int(hits[0])],
                    successor_b=chain.states[int(hits[1])]))
    return SingleEntryResult(True, None)


def first_sfs_violation(chain, lumping, k):
    """The single forward k-sequence verdict by enumerating every state path.

    A frozen copy of the library's original depth-first walk, without its
    path budget. It defines the witness: sequences ``(x0, y1..y_{k-1})`` run
    in lexicographic order of state index, and the violation is the first
    one whose path differs from the path of the first sequence with the same
    start block and block word; that first sequence gives ``start_a`` and
    ``path_a``. Cost: every realisable path, up to n^k.
    """
    from lumpchain.errors import KTooSmall
    from lumpchain.lumping import SfsResult, SfsViolation

    if k < 2:
        raise KTooSmall("the forward-sequence property needs k >= 2")
    adj = chain.adjacency
    of_state = lumping.of_state
    # (start block, block word) -> first (start state, path) seen
    first = {}

    def walk(x0, path):
        if len(path) == k - 1:
            key = (int(of_state[x0]), tuple(int(of_state[x]) for x in path))
            prev = first.setdefault(key, (x0, path))
            if prev[1] != path:
                return SfsViolation(
                    block_word=tuple(lumping.blocks[b] for b in key[1]),
                    start_block=lumping.blocks[key[0]],
                    start_a=chain.states[prev[0]],
                    path_a=tuple(chain.states[i] for i in prev[1]),
                    start_b=chain.states[x0],
                    path_b=tuple(chain.states[i] for i in path))
            return None
        cur = path[-1] if path else x0
        for y in np.flatnonzero(adj[cur]):
            bad = walk(x0, path + (int(y),))
            if bad is not None:
                return bad
        return None

    for x0 in range(chain.n):
        bad = walk(x0, ())
        if bad is not None:
            break
    return SfsResult(order_k=k, holds=bad is None, violation=bad)


def sfs_tables_dense(adj, same, levels):
    """The SFS backward tables as ``(n x n)`` products over the whole chain.

    A frozen copy of the library's original dense kernel, kept as the
    reference for the block-diagonal one. ``pairs[r]`` marks the same-block
    pairs (u, v), u = v included, from which two state paths of r more steps
    share one block word; ``forks[r]`` marks the states u from which two
    different such paths leave. Both are indexed by the number of steps left
    and by state index; each level costs two ``(n x n)`` products.
    """
    A = adj.astype(np.float32)  # exact: the first product's counts stay below n + 1
    pairs, forks = [same], [np.zeros(len(adj), dtype=bool)]
    for _ in range(levels - 1):
        AC = A @ pairs[-1]  # (u, y'): successors y of u with (y, y') a pair
        apart = (AC - A * np.diagonal(pairs[-1])) > 0  # ... with y != y'
        forks.append((apart & adj).any(axis=1) | (A @ forks[-1] > 0))
        pairs.append(same & (AC @ A.T > 0))
    return pairs, forks
