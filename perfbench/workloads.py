"""Seeded query generators for the three benchmark workloads.

Every workload is one *round*: a fixed list of queries that the benchmark
answers again and again.  The seed only picks the numbers inside each query;
the shape of a round (how many queries of each family, which matrix sizes,
which rule branches) is the same for every seed, so that medians and
percentiles measured on different seeds describe the same mix.

Each generated query comes with a *note*: what the generator built it to be
(a projective table row, a Wecken rule class, ...).  Notes never reach the
program; the checker uses them as the expected outcome.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("mixed-batch", "torus-lattice", "bigint")

FACTS = ("yes", "no", "unknown", None)  # None: field omitted


@dataclass
class Workload:
    name: str
    queries: list[dict]
    notes: dict[str, dict] = field(default_factory=dict)
    cli_index: list[int] = field(default_factory=list)  # one-query processes
    rss_index: list[int] = field(default_factory=list)  # the batch-process chunk

    def first_of_each_family(self) -> list[dict]:
        seen, first = set(), []
        for q in self.queries:
            if q["family"] not in seen:
                seen.add(q["family"])
                first.append(q)
        return first


class _Builder:
    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.w = Workload(name, [])
        self.prefix = f"{name}-{seed}"

    def add(self, family: str, payload: dict, note: dict | None = None):
        qid = f"{self.prefix}-{len(self.w.queries)}"
        self.w.queries.append({"id": qid, "family": family, "payload": payload})
        if note:
            self.w.notes[qid] = note

    def spread(self, lo: int, hi: int, count: int) -> list[int]:
        """``count`` values covering [lo, hi] evenly, in shuffled order: every
        round holds the same spread of sizes and the seed only jitters them,
        so quantiles of a 120-query round do not move with the seed."""
        values = [int(lo + (hi - lo) * (j + self.rng.random()) / count)
                  for j in range(count)]
        self.rng.shuffle(values)
        return values

    def fact(self, payload: dict, name: str, choices=FACTS) -> None:
        value = self.rng.choice(choices)
        if value is not None:
            payload[name] = value

    # -- matrices ---------------------------------------------------------

    def entry(self, digits: int) -> int:
        return self.rng.randint(-(10 ** digits - 1), 10 ** digits - 1)

    def matrix(self, rows: int, cols: int, digits: int) -> list[list[int]]:
        return [[self.entry(digits) for _ in range(cols)] for _ in range(rows)]

    def rank_deficient(self, rows: int, cols: int, digits: int):
        """The last row is a small combination of the first two (or zero)."""
        a = self.matrix(rows, cols, digits)
        if rows == 1:
            return [[0] * cols]
        s, t = self.rng.randint(-3, 3), self.rng.randint(-3, 3)
        second = a[1] if rows > 2 else [0] * cols
        a[-1] = [s * x + t * y for x, y in zip(a[0], second)]
        return a

    def torus(self, kind: str, n: int, digits: int, cols: int | None = None):
        """kind: square | wide | rankdef | general (non-torus source).

        ``cols`` is the column count for wide and general matrices.
        """
        if kind == "general":
            payload = {"m": self.rng.randint(1, 8), "n": n,
                       "h1": self.matrix(n, cols or n, digits),
                       "source_is_torus": False}
            self.fact(payload, "top_pullback_nonzero")
            self.fact(payload, "det_kills_top")
        else:
            m = cols if kind == "wide" else n
            h1 = (self.rank_deficient(n, m, digits) if kind == "rankdef"
                  else self.matrix(n, m, digits))
            payload = {"m": m, "n": n, "h1": h1, "source_is_torus": True}
        self.add("torus", payload, {"kind": kind})

    # -- the other families -----------------------------------------------

    def stiefel(self, r: int, k: int):
        payload = {"r": r, "k": k}
        if self.rng.random() < 0.5:
            payload["oriented_target"] = self.rng.random() < 0.5
        self.add("stiefel", payload)

    def sphere(self, kind: str):
        rng = self.rng
        if kind == "degrees":
            n = rng.randint(1, 8)
            payload = {"m": n, "n": n,
                       "degrees": [rng.randint(-20, 20), rng.randint(-20, 20)]}
        elif kind == "below":  # pi_m(S^n) = 0: the class must vanish
            n = rng.randint(2, 9)
            m = rng.randint(1, n - 1)
            if rng.random() < 0.3:
                m, n = rng.randint(2, 9), 1
            payload = {"m": m, "n": n, "f1_homotopic_a_f2": "yes"}
        else:  # m > n >= 2, arbitrary consistent facts
            n = rng.randint(2, 8)
            payload = {"m": rng.randint(n + 1, n + 12), "n": n}
            for name in ("f1_homotopic_a_f2", "in_suspension_image",
                         "stable_suspension_nonzero"):
                self.fact(payload, name)
            # a nonzero stable suspension forces a nonzero Hopf-James
            choices = (("yes", "unknown", None)
                       if payload.get("stable_suspension_nonzero") == "yes"
                       else FACTS)
            self.fact(payload, "some_stable_hopf_james_nonzero", choices)
        self.add("sphere", payload)

    def spaceform(self, kind: str):
        rng = self.rng
        odd_n = rng.choice((3, 5, 7, 9, 11))
        even_n = rng.choice((2, 4, 6, 8, 10, 12))
        if kind == "odd-distinct":
            payload = {"m": rng.randint(odd_n, odd_n + 12), "n": odd_n,
                       "group_order": rng.randint(2, 12), "homotopic": "no"}
            self.fact(payload, "in_psE_image")
        elif kind == "odd-self":
            payload = {"m": rng.randint(2, 20), "n": odd_n,
                       "group_order": rng.randint(2, 12), "homotopic": "yes"}
        elif kind == "even-del-zero":
            payload = {"m": rng.randint(2, 20), "n": even_n, "group_order": 2,
                       "homotopic": "yes", "del_zero": "yes"}
        elif kind == "even-edel-nonzero":
            payload = {"m": rng.randint(even_n, even_n + 12), "n": even_n,
                       "group_order": 2, "homotopic": "yes",
                       "e_del_zero": "no"}
        else:  # even-distinct
            payload = {"m": rng.randint(even_n, even_n + 12), "n": even_n,
                       "group_order": 2, "homotopic": "no"}
        self.add("spaceform", payload, {"kind": kind})

    def projective(self, row: int):
        rng = self.rng
        field_ = (rng.choice("RCH") if row <= 2
                  else "R" if row <= 5 else rng.choice("CH"))
        payload = {"field": field_, "n_prime": rng.randint(2, 8),
                   "m": rng.randint(2, 24)}
        facts = {
            1: {"fprime_homotopic": "yes", "lift2_in_ker_del": "yes"},
            2: {"fprime_homotopic": "yes", "lift2_in_ker_del": "no",
                "lift2_in_ker_Edel": "yes"},
            3: {"fprime_homotopic": "yes",
                "lift2_antipodal_selfhomotopic": "no"},
            4: {"fprime_homotopic": "no", "lifts_differ_by_suspension": "yes"},
            5: {"fprime_homotopic": "no", "lifts_differ_by_suspension": "no"},
            6: {"lifts_equal": "yes", "lift2_in_ker_Edel": "no"},
            7: {"lifts_equal": "no"},
        }[row]
        payload.update(facts)
        self.add("projective", payload, {"row": row})

    def wecken(self, kind: str):
        rng = self.rng
        family = rng.choice(("Sphere", "SphericalSpaceForm", "GeneralN"))
        if kind == "R1":  # n odd: the target has Euler characteristic 0
            n = rng.randrange(1, 41, 2)
            payload = {"m": rng.randint(1, 90), "n": n, "target_family": family}
        elif kind == "R1-chi-zero":
            n = rng.randrange(2, 41, 2)
            payload = {"m": rng.randint(1, 90), "n": n,
                       "target_family": "GeneralN",
                       "noncompact_or_chi_zero": "yes"}
        elif kind == "R2":  # m < 2n - 2 with n even
            n = rng.randrange(4, 41, 2)
            payload = {"m": rng.randint(1, 2 * n - 3), "n": n,
                       "target_family": family}
            if family == "GeneralN":
                self.fact(payload, "noncompact_or_chi_zero",
                          ("no", "unknown", None))
        else:  # Kervaire failure at (2n - 2, n)
            n = rng.choice((16, 32, 64))
            payload = {"m": 2 * n - 2, "n": n,
                       "target_family": rng.choice(("Sphere",
                                                    "SphericalSpaceForm"))}
        self.add("wecken", payload, {"kind": kind})

    def fixedpoint(self, kind: str):
        rng = self.rng
        if kind == "hyperbolic-surface":
            payload = {"dim": 2, "chi": rng.randint(-40, -1)}
        elif kind == "surface":
            payload = {"dim": 2, "chi": rng.choice((0, 1, 2))}
        else:
            payload = {"dim": rng.choice((1, 3, 4, 5, 6, 7, 8)),
                       "chi": rng.randint(-40, 40)}
        self.add("fixedpoint", payload)


# -- mixed-batch ------------------------------------------------------------

MIXED_BLOCKS = 60


def _mixed_block(b: _Builder) -> None:
    """36 queries in the golden corpus's family proportions."""
    rng = b.rng
    b.torus("square", rng.randint(1, 4), 1)
    n = rng.randint(1, 3)
    b.torus("wide", n, 1, cols=rng.randint(n + 1, 4))
    b.torus("rankdef", rng.randint(2, 4), 1)
    b.torus("general", rng.randint(1, 4), 1, cols=rng.randint(1, 4))
    b.torus("square", rng.randint(1, 4), 1)
    for kind in ("degrees", "below", "above", "above"):
        b.sphere(kind)
    for kind in ("odd-distinct", "odd-self", "even-del-zero",
                 "even-edel-nonzero", "even-distinct"):
        b.spaceform(kind)
    for row in range(1, 8):
        b.projective(row)
    for _ in range(6):
        k = rng.randint(1, 12)
        b.stiefel(rng.randint(2 * k, 2 * k + 40), k)
    for kind in ("R1", "R1", "R1-chi-zero", "R2", "R2", "kervaire"):
        b.wecken(kind)
    for kind in ("hyperbolic-surface", "surface", "other"):
        b.fixedpoint(kind)


def mixed_batch(seed: int, golden: list[dict]):
    b = _Builder("mixed-batch", seed)
    for _ in range(MIXED_BLOCKS):
        _mixed_block(b)
    b.w.queries.extend(golden)  # verbatim; checked against the golden answers
    per_family = {}
    for i, q in enumerate(b.w.queries[:36]):
        per_family.setdefault(q["family"], i)
    b.w.cli_index = sorted(per_family.values())
    b.w.rss_index = list(range(min(len(b.w.queries), 360)))
    return b.w


# -- torus-lattice ----------------------------------------------------------

# (count, n, columns, digits, kind) per round: 600 queries from 2x2 to
# 32x32.  The Smith reduction's cost varies from matrix to matrix with a
# heavy tail (one 16x16 matrix in six takes twice the others), so p99 must
# not rest on one or two matrices: six queries per round lie above its rank,
# the 32x32 one and five of the twelve 16x16 ones, and p99 falls in the
# middle of those twelve.
TORUS_SCHEDULE = (
    (1, 4, 4, 2, "square"),  # first: the set-up probe's torus query
    (140, 2, 2, 3, "square"), (60, 3, 3, 3, "square"),
    (60, 4, 4, 2, "square"), (40, 3, 5, 2, "wide"), (40, 5, 8, 2, "wide"),
    (40, 4, 4, 2, "rankdef"), (30, 6, 6, 2, "rankdef"),
    (40, 3, 4, 2, "general"), (30, 6, 8, 1, "general"),
    (40, 6, 6, 2, "square"), (30, 8, 8, 2, "square"),
    (20, 10, 10, 2, "square"), (16, 12, 14, 2, "wide"),
    (12, 16, 16, 2, "square"), (1, 32, 32, 1, "square"),
)


def torus_lattice(seed: int):
    b = _Builder("torus-lattice", seed)
    for count, n, cols, digits, kind in TORUS_SCHEDULE:
        for _ in range(count):
            b.torus(kind, n, digits, cols=cols)
    qs = b.w.queries
    # one-query processes: the desk-scale 6x6 and 8x8 squares
    b.w.cli_index = [i for i, q in enumerate(qs)
                     if q["payload"]["source_is_torus"]
                     and len(q["payload"]["h1"]) in (6, 8)
                     and len(q["payload"]["h1"][0]) == len(q["payload"]["h1"])]
    # the batch process: the first 50 queries and the 13 largest matrices
    b.w.rss_index = list(range(50)) + list(range(len(qs) - 13, len(qs)))
    return b.w


# -- bigint -----------------------------------------------------------------

BIGINT_ROUND = 120

# Per 20 queries: 12 Stiefel and 8 torus queries.  Stiefel slots: even k
# (the rule never reads chi), odd k with even r (chi = 0), the closed-form
# orders k = 3, 5, 7, 9, and odd k >= 11 where only 12 | chi decides.
STIEFEL_SLOTS = ("even", "even", "zero", "zero", "zero", "small",
                 "odd", "odd", "odd", "odd", "odd", "odd")
# Torus slots: (kind, n, columns, entry digits) for dense matrices, which
# stay below ~150 digits: the Smith reduction's transforms grow to tens of
# thousands of digits there, and a dense 2x2 with 1,000-digit entries takes
# seconds.  ("chain", n) is a diagonal d1 | d2 | ... of hundreds of digits.
TORUS_SLOTS = (("square", 2, 2, (100, 150)), ("square", 3, 3, (50, 70)),
               ("wide", 2, 3, (90, 110)), ("general", 3, 4, (40, 60)),
               ("rankdef", 3, 3, (50, 70)),
               ("chain", 2), ("chain", 3), ("chain", 4))
CHAIN_DIGITS = {2: 1400, 3: 700, 4: 400}  # keeps |det| under 4,300 digits


def bigint(seed: int):
    b = _Builder("bigint", seed)
    rng = b.rng
    blocks = BIGINT_ROUND // 20
    halves = {slot: iter(zip(b.spread(300, 1500, count * blocks),
                             b.spread(10_000, 50_000, count * blocks)))
              for slot, count in (("even", 2), ("zero", 3), ("odd", 6))}
    small_r = iter(b.spread(10_000, 50_000, blocks))
    dense_digits = [iter(b.spread(*slot[3], blocks))
                    for slot in TORUS_SLOTS if slot[0] != "chain"]
    for _ in range(blocks):
        for slot in STIEFEL_SLOTS:
            if slot == "small":
                b.stiefel(2 * next(small_r) + 1, rng.choice((3, 5, 7, 9)))
                continue
            half_k, half_r = next(halves[slot])
            k = 2 * half_k + (slot != "even")
            r = 2 * half_r + (1 if slot == "odd" else
                              0 if slot == "zero" else rng.randint(0, 1))
            b.stiefel(r, k)
        for i, (kind, n, *rest) in enumerate(TORUS_SLOTS):
            if kind != "chain":
                b.torus(kind, n, next(dense_digits[i]), cols=rest[0])
                continue
            # d_i has at most i * top digits, so |det| at most
            # top * n(n+1)/2 digits
            top = CHAIN_DIGITS[n]
            diag, acc = [], 1
            for _ in range(n):
                acc *= rng.randint(10 ** (top * 3 // 4), 10 ** top)
                diag.append(acc)
            h1 = [[diag[i] if i == j else 0 for j in range(n)]
                  for i in range(n)]
            b.add("torus", {"m": n, "n": n, "h1": h1, "source_is_torus": True},
                  {"kind": "chain"})
    # one-query processes: the first block's Stiefel and diagonal chains
    b.w.cli_index = list(range(12)) + [17, 18, 19]
    b.w.rss_index = list(range(len(b.w.queries)))
    return b.w


def load_golden(root: Path) -> list[dict]:
    return json.loads((root / "tests/data/golden_queries.json").read_text())


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "mixed-batch":
        return mixed_batch(seed, load_golden(root))
    if name == "torus-lattice":
        return torus_lattice(seed)
    if name == "bigint":
        return bigint(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
