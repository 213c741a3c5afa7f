"""Seeded inputs for the benchmark workloads, and the operation each input runs.

Every workload is a fixed list of input *shapes* (family, state count, block
count, horizons, ...). The seed only draws the random structure inside each
shape, so two seeds give inputs of the same size and a similar cost, and the
same seed always gives the same inputs. The generators use numpy alone; they
never call the library, so a change to the library cannot change the inputs.

Why each workload exists:

- ``cli_corpus``: ``lumpchain analyze --format json`` on every model file,
  one fresh interpreter per call. Interpreter start and import are most of
  each call and the kernels do almost nothing (at most six states), so CLI
  and import-time changes show here and kernel changes should not.
- ``lattice``: in-process ``run_analysis`` at horizons up to 8 on sparse and
  dense chains of 8-24 states. The block-word forward pass does nearly all
  the work; the pair search finds a split-merge at depth 1.
- ``pairs``: in-process ``run_analysis`` at horizons up to 3 on 100-300
  states. Lossy sparse chains pay the per-pair common-neighbour scan; the
  lossless private-successor family makes the pair search visit every
  same-block pair, twice per analysis.
- ``sampling``: the seeded estimators. The belief filter, the trajectory
  sampler and the preimage-count DP are Python per-step loops that run
  nowhere else.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cli_corpus", "lattice", "pairs", "sampling")
DEFAULT_SEED = 0

# (family, states, blocks, largest horizon); k runs 1..3, weak horizon = largest.
# Dense chains have every edge, so their live words are blocks**horizon; they
# stop at a lower horizon to keep one analysis within a few seconds. Sparse
# chains (out-degree 3; "thin" has out-degree 2) use horizon 6-8. Most shapes
# cost a similar 0.2-0.5 s, so the median falls among similar operations;
# the last carries 4096 live words (the others about 1k) and shows the cost
# of a larger working set. Its five or six samples in a run stay below the
# ten that the tail skips, so the tail falls among the lighter inputs rather
# than on the edge between two groups.
LATTICE_SHAPES = (
    ("thin", 12, 3, 8),
    ("thin", 24, 3, 8),
    ("thin", 16, 4, 8),
    ("thin", 24, 4, 7),
    ("sparse", 12, 3, 7),
    ("sparse", 16, 4, 6),
    ("dense", 8, 3, 6),
    ("dense", 16, 3, 6),
    ("dense", 8, 4, 5),
    ("dense", 16, 4, 5),
    ("dense", 24, 4, 4),
    ("dense", 16, 4, 6),
)
LATTICE_K = (1, 2, 3)

# (family, states, blocks); horizons 1..3, k 1..2, weak horizon 3. Few
# inputs, so that each runs several times in one measurement. The largest
# lossless input runs five or six times in a run; the two lossy inputs of
# 300 states together ten or more, so that the tail (the 11th largest of
# about 30 operations) falls among them rather than between groups.
PAIRS_SHAPES = (
    ("sparse", 100, 2),
    ("sparse", 200, 3),
    ("sparse", 300, 4),
    ("sparse", 300, 4),
    ("private", 150, 3),
    ("private", 300, 4),
)
PAIRS_HORIZONS = (1, 2, 3)
PAIRS_K = (1, 2)

# (estimator, states, blocks) on sparse chains. The belief filter's cost is
# set by its step count; the preimage DP's by how fast the preimage counts
# grow, which depends on the drawn structure. Filter calls are two thirds of
# the operations, so the median and the tail fall among them.
SAMPLING_SHAPES = (
    ("blackwell", 8, 2),
    ("blackwell", 16, 3),
    ("blackwell", 24, 3),
    ("blackwell", 32, 3),
    ("blackwell", 48, 4),
    ("blackwell", 64, 4),
    ("blackwell", 80, 4),
    ("blackwell", 100, 4),
    ("growth", 16, 3),
    ("growth", 40, 3),
    ("growth", 64, 4),
    ("growth", 100, 4),
)
BLACKWELL_STEPS = 20_000
GROWTH_LENGTH = 2000
GROWTH_SEEDS = 8
GROWTH_CHECKPOINTS = (10, 50, 100, 500, 2000)  # the library's default checkpoints

SPARSE_OUT_DEGREE = 3
THIN_OUT_DEGREE = 2
MAX_DRAWS = 1000  # private-successor draws before giving up
_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}


@dataclass
class Item:
    """One input of a workload and the operation it runs.

    ``kind`` is ``cli`` (model file path in ``model``), ``analysis``,
    ``blackwell`` or ``growth`` (matrix and block list in ``matrix`` and
    ``blocks``, the call's parameters in ``params``).
    """

    key: str
    kind: str
    family: str = ""
    model: str = ""
    matrix: np.ndarray | None = None
    blocks: list[int] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def states(self) -> list[str]:
        return [f"s{i}" for i in range(len(self.blocks))]

    @property
    def assignment(self) -> dict[str, str]:
        return {f"s{i}": f"B{b}" for i, b in enumerate(self.blocks)}


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SALT[workload], index])


def _block_map(rng: np.random.Generator, n: int, nb: int) -> list[int]:
    """Surjective map onto ``nb`` blocks of equal size (up to one state)."""
    blocks = np.arange(n) % nb
    rng.shuffle(blocks)
    return [int(b) for b in blocks]


def _weights(rng: np.random.Generator, adj: np.ndarray) -> np.ndarray:
    w = np.where(adj, rng.uniform(0.5, 1.5, adj.shape), 0.0)
    return w / w.sum(axis=1, keepdims=True)


def sparse_chain(rng: np.random.Generator, n: int, nb: int,
                 out_degree: int = SPARSE_OUT_DEGREE) -> tuple[np.ndarray, list[int]]:
    """Irreducible aperiodic chain where every state has ``out_degree`` edges.

    A random Hamiltonian cycle gives irreducibility and a self-loop on its
    first state gives aperiodicity; the remaining edges of each state go to
    distinct random targets. A fixed out-degree keeps the cost of a shape
    similar from seed to seed.
    """
    perm = rng.permutation(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[perm, np.roll(perm, -1)] = True
    adj[perm[0], perm[0]] = True
    for x in range(n):
        missing = out_degree - int(adj[x].sum())
        if missing > 0:
            free = np.flatnonzero(~adj[x])
            adj[x, rng.choice(free, size=missing, replace=False)] = True
    return _weights(rng, adj), _block_map(rng, n, nb)


def dense_chain(rng: np.random.Generator, n: int, nb: int) -> tuple[np.ndarray, list[int]]:
    """Chain with every transition positive: all block words are live."""
    return _weights(rng, np.ones((n, n), dtype=bool)), _block_map(rng, n, nb)


def irreducible_aperiodic(adj: np.ndarray) -> bool:
    """Strong connectivity by forward and backward reachability from state 0,
    aperiodicity by the gcd of level differences along edges."""
    n = adj.shape[0]

    def levels(a: np.ndarray) -> np.ndarray:
        level = np.full(n, -1)
        level[0] = 0
        frontier = np.array([0])
        depth = 0
        while frontier.size:
            depth += 1
            frontier = np.flatnonzero(a[frontier].any(axis=0) & (level < 0))
            level[frontier] = depth
        return level

    level = levels(adj)
    if (level < 0).any() or (levels(adj.T) < 0).any():
        return False
    u, v = np.nonzero(adj)
    g = 0
    for d in (level[u] + 1 - level[v]).tolist():
        g = math.gcd(g, d)
    return abs(g) == 1


def private_successor_chain(rng: np.random.Generator, n: int,
                            nb: int) -> tuple[np.ndarray, list[int]]:
    """Lossless family: same-block states never share a successor.

    Blocks have n / nb members each. Every block deals a random permutation
    of all n states to its members, nb states apiece, so each state has
    out-degree nb and two members of one block have disjoint successor sets.
    No pair of same-block states can merge again, so the split-merge index is
    infinite and the pair search visits every reachable same-block pair.
    Draws repeat until the chain is irreducible and aperiodic.
    """
    if n % nb:
        raise ValueError(f"{n} states do not split into {nb} equal blocks")
    size = n // nb
    blocks = _block_map(rng, n, nb)
    members = [np.flatnonzero(np.asarray(blocks) == b) for b in range(nb)]
    for _ in range(MAX_DRAWS):
        adj = np.zeros((n, n), dtype=bool)
        for m in members:
            adj[m[:, None], rng.permutation(n).reshape(size, nb)] = True
        if irreducible_aperiodic(adj):
            return _weights(rng, adj), blocks
    raise RuntimeError(f"no irreducible aperiodic draw in {MAX_DRAWS} tries")


def _chain(family: str, rng, n: int, nb: int):
    if family == "thin":
        return sparse_chain(rng, n, nb, THIN_OUT_DEGREE)
    return {"sparse": sparse_chain, "dense": dense_chain,
            "private": private_successor_chain}[family](rng, n, nb)


def make_items(workload: str, seed: int, root: pathlib.Path) -> list[Item]:
    """The workload's inputs for ``seed``, in the order one round runs them."""
    if workload == "cli_corpus":
        paths = sorted((root / "models").glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no model files under {root / 'models'}")
        order = np.random.default_rng([seed, _SALT[workload]]).permutation(len(paths))
        return [Item(key=paths[i].stem, kind="cli",
                     model=str(paths[i].relative_to(root))) for i in order]
    items = []
    if workload == "lattice":
        for i, (family, n, nb, h) in enumerate(LATTICE_SHAPES):
            matrix, blocks = _chain(family, _rng(seed, workload, i), n, nb)
            items.append(Item(
                key=f"{i:02d}-{family}-n{n}-b{nb}-h{h}", kind="analysis", family=family,
                matrix=matrix, blocks=blocks,
                params={"horizons": tuple(range(1, h + 1)), "k_range": LATTICE_K,
                        "weak_horizon": h}))
    elif workload == "pairs":
        for i, (family, n, nb) in enumerate(PAIRS_SHAPES):
            matrix, blocks = _chain(family, _rng(seed, workload, i), n, nb)
            items.append(Item(
                key=f"{i:02d}-{family}-n{n}-b{nb}", kind="analysis", family=family,
                matrix=matrix, blocks=blocks,
                params={"horizons": PAIRS_HORIZONS, "k_range": PAIRS_K,
                        "weak_horizon": PAIRS_HORIZONS[-1]}))
    elif workload == "sampling":
        for i, (kind, n, nb) in enumerate(SAMPLING_SHAPES):
            rng = _rng(seed, workload, i)
            matrix, blocks = sparse_chain(rng, n, nb)
            if kind == "blackwell":
                params = {"steps": BLACKWELL_STEPS, "seed": int(rng.integers(2**31))}
            else:
                params = {"length": GROWTH_LENGTH,
                          "seeds": [int(s) for s in rng.integers(2**31, size=GROWTH_SEEDS)]}
            items.append(Item(key=f"{i:02d}-{kind}-n{n}-b{nb}", kind=kind,
                              family="sparse", matrix=matrix, blocks=blocks, params=params))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def round_order(items: list[Item], seed: int, round_index: int) -> list[Item]:
    """Items of one round in a seeded order, so no input always runs first."""
    order = np.random.default_rng([seed, 99, round_index]).permutation(len(items))
    return [items[i] for i in order]


# ---------------------------------------------------------------------------
# exact work counters, computed from the inputs alone


def live_words(matrix: np.ndarray, blocks: list[int], length: int) -> int:
    """Block words of the given length with positive stationary mass.

    Structural count over the transition graph (a word is live iff some state
    path realises it), so it does not depend on how the library prunes.
    """
    adj = np.asarray(matrix) > 0
    b = np.asarray(blocks)
    nb = int(b.max()) + 1
    member = np.stack([b == k for k in range(nb)])      # (nb, n)
    reach = member.copy()                                # one row per live word
    for _ in range(length - 1):
        pushed = (reach.astype(np.int64) @ adj.astype(np.int64)) > 0
        nxt = (pushed[:, None, :] & member[None, :, :]).reshape(-1, len(b))
        reach = nxt[nxt.any(axis=1)]
    return int(reach.shape[0])


def same_block_pairs(blocks: list[int]) -> int:
    sizes = np.bincount(np.asarray(blocks))
    return int((sizes * (sizes - 1)).sum())


def model_arrays(path: pathlib.Path) -> tuple[np.ndarray, list[int]]:
    """Transition matrix and block list of a model file, for the work counters."""
    import json
    from fractions import Fraction

    raw = json.loads(path.read_text(encoding="utf-8"))
    matrix = np.array([[float(Fraction(str(v))) for v in row]
                       for row in raw["transition_matrix"]])
    labels: list[str] = []
    blocks = []
    for s in raw["states"]:
        label = raw["lumping"][s]
        if label not in labels:
            labels.append(label)
        blocks.append(labels.index(label))
    return matrix, blocks


def work_counters(item: Item, root: pathlib.Path) -> dict[str, int]:
    """Exact, implementation-independent work of one operation."""
    if item.kind == "cli":
        matrix, blocks = model_arrays(root / item.model)
        horizon = 6  # the CLI's default largest horizon
    else:
        matrix, blocks = item.matrix, item.blocks
        horizon = max(item.params.get("horizons", (0,)))
    out = {"work.states": len(blocks),
           "work.edges": int((np.asarray(matrix) > 0).sum()),
           "work.same_block_pairs": same_block_pairs(blocks),
           "work.live_words": live_words(matrix, blocks, horizon) if horizon else 0,
           "work.filter_steps": 0,
           "work.preimage_symbols": 0}
    if item.kind == "blackwell":
        out["work.filter_steps"] = item.params["steps"]
    elif item.kind == "growth":
        per_seed = sum(c for c in GROWTH_CHECKPOINTS if c <= item.params["length"])
        out["work.preimage_symbols"] = per_seed * len(item.params["seeds"])
    return out
