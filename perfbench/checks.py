"""Independent checks of coincalc answers.

Nothing here calls coincalc.  Expected values come from sympy (torus
lattices), from Kummer's carry count (the Stiefel Euler number), from the
statements of the paper (Thm 1.7 for spheres, Thm 1.10, 1.15 and Prop 4.3
for space forms, Table 4.7, Wecken rules R1, R2 and the Kervaire failures,
the fixed-point surface dichotomy), from the generator's notes, and from the
golden answers shipped in tests/data.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

CHAIN = ("mc", "mcc", "n_sharp", "n_tilde", "n", "n_z")
BUNDLE_KEYS = set(CHAIN) | {"reidemeister"}
FACT_KEYS = {"wecken": "wecken_condition", "fixedpoint": "wecken_fixed_point"}
INF = "infinite"

# Table 4.7: (N#, MCC, MC) per row, MC None for infinite
TABLE_4_7 = {1: (0, 0, 0), 2: (0, 1, 1), 3: (1, 1, 1), 4: (2, 2, 2),
             5: (2, 2, None), 6: (1, 1, 1), 7: (1, 1, None)}
COROLLARY = {2: "Cor1.3", 3: "Cor1.4", 5: "Cor1.5"}


def rule_ids(root: Path) -> set[str]:
    """Identifiers of the closed vocabulary as docs/rules.md lists them."""
    text = (root / "docs/rules.md").read_text(encoding="utf-8")
    return set(re.findall(r"^\| `([^`]+)` \|", text, flags=re.M))


def _le(lo, hi) -> bool:
    if hi == INF:
        return True
    if lo == INF:
        return False
    return lo <= hi


def _kummer(n: int, k: int, p: int) -> int:
    """Exponent of the prime p in C(n, k): the carries adding k and n - k
    in base p."""
    a, b, carry, count = k, n - k, 0, 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        count += carry
        a, b = a // p, b // p
    return count


def stiefel_expected(r: int, k: int) -> tuple:
    """(value, trace) shared by MC, MCC, N#, Ntilde and N (Thm 1.2 and
    Cor 1.3-1.5): 0 when 2 chi [SO(k)] vanishes, else 1."""
    trace = ["Thm1.2"] + ([COROLLARY[k]] if k in COROLLARY else [])
    if k % 2 == 1 and r % 2 == 0:
        truth, rule = True, "chi-zero"
    elif k == 1:
        truth, rule = False, "SO1-infinite"
    elif k % 2 == 0:
        truth, rule = True, "2SOeven"
    elif k in (7, 9):
        truth, rule = True, "SO-nullbordant"
    else:
        # chi = C(r // 2, k // 2) > 0; its 2- and 3-adic valuations decide
        v2 = _kummer(r // 2, k // 2, 2)
        v3 = _kummer(r // 2, k // 2, 3)
        if v2 >= 2 and v3 >= 1:
            truth, rule = True, "24SO"
        elif k == 3:
            truth, rule = v2 >= 1 and v3 >= 1, "SO3-order12"
        elif k == 5:
            truth, rule = v3 >= 1, "SO5-order3"
        else:
            truth, rule = None, "SO-order-open"
    trace.append(rule)
    if truth is True:
        return 0, trace + ["Prop5.1"]
    if truth is False:
        return 1, trace
    return "unknown", trace


def torus_expected(payload: dict) -> dict:
    """The seven invariants per Thm 1.8 (torus source) and Thm 3.7 (general
    source), from sympy's invariant factors of the H1 difference."""
    rows = payload["h1"]
    n = len(rows)
    factors = [int(d) for d in invariant_factors(Matrix(rows), domain=ZZ)]
    nonzero = [abs(d) for d in factors if d]
    det = 0
    if len(nonzero) == n:
        det = 1
        for d in nonzero:
            det *= d
    card = det if det else INF

    def v(value, *trace):
        return {"value": value, "trace": list(trace)}

    if payload["source_is_torus"]:
        same = v(det, "Thm1.8")
        mc = same if (payload["m"] == n or det == 0) else v(INF, "Thm1.8")
        return {"mc": mc, "mcc": same, "n_sharp": same, "n_tilde": same,
                "n": same, "n_z": same, "reidemeister": v(card, "Thm1.8"),
                "det": det}
    top = payload.get("top_pullback_nonzero", "unknown")
    if top == "yes":
        n_z = v(det, "Thm3.7")
    elif top == "no" and payload.get("det_kills_top") == "yes":
        n_z = v(0, "Thm3.7")
    elif top == "no":
        n_z = v("unknown", "Thm3.7", "needs:det_kills_top")
    else:
        n_z = v("unknown", "Thm3.7", "needs:top_cohomology_pullback_nonzero")
    if n != 2 and top == "yes":
        mid = v(det, "Thm3.7")
    else:
        mid = v("unknown", "Thm3.7", "needs:top_cohomology_pullback_nonzero")
    return {"mc": v("unknown", "Thm3.7"), "mcc": mid, "n_sharp": mid,
            "n_tilde": mid, "n": mid, "n_z": n_z,
            "reidemeister": v(card, "Reid3.5", "Thm3.7"), "det": det}


def sphere_expected(p: dict) -> dict:
    """The seven values per Thm 1.7 (a-e) and Ex 3.9 for S^m -> S^n."""
    m, n = p["m"], p["n"]
    if "degrees" in p:
        d1, d2 = p["degrees"]
        vanishes = d1 - (-1) ** (n + 1) * d2 == 0
        hom = "yes" if vanishes else "no"
        desusp = "yes"
        stable = hopf_james = "no" if vanishes else "yes"
    else:
        hom = p.get("f1_homotopic_a_f2", "unknown")
        desusp = p.get("in_suspension_image", "unknown")
        stable = p.get("stable_suspension_nonzero", "unknown")
        hopf_james = ("yes" if stable == "yes" else
                      p.get("some_stable_hopf_james_nonzero", "unknown"))
    if n >= 2:  # (a)
        reid = 1
    elif m == 1:
        reid = abs(d1 - d2) or INF
    else:
        reid = INF
    if m == n == 1:  # (b), (c) on the circle
        mc = mcc = abs(d1 - d2)
    elif hom == "yes":
        mc = mcc = 0
    elif hom == "no":
        mcc = reid
        mc = 1 if m == n else {"yes": 1, "no": INF}.get(desusp, "unknown")
    else:
        mc = mcc = "unknown"
    one_iff = {"yes": 1, "no": 0}
    if n == 1 or hom == "yes":  # (d): all six coincide
        same = mc if mc != "unknown" else mcc
        n_tilde = n_ = n_z = same
    elif hom == "no":  # (e) and Ex 3.9
        n_tilde = one_iff.get(hopf_james, "unknown")
        n_ = one_iff.get(stable, "unknown")
        n_z = 0 if m > n else 1
    else:
        n_tilde = n_ = n_z = "unknown"
    return {"mc": mc, "mcc": mcc, "n_sharp": mcc, "n_tilde": n_tilde,
            "n": n_, "n_z": n_z, "reidemeister": reid}


def target_dim(query: dict) -> int:
    p = query["payload"]
    family = query["family"]
    if family == "stiefel":
        return p["k"] * (p["r"] - p["k"])
    if family == "projective":
        return p["n_prime"] * {"R": 1, "C": 2, "H": 4}[p["field"]]
    return p["n"]


class Checker:
    """Checks one answer at a time; ``check`` returns a list of problems."""

    def __init__(self, root: Path, notes: dict[str, dict]):
        self.rules = rule_ids(root)
        golden = json.loads((root / "tests/data/golden_answers.json")
                            .read_text(encoding="utf-8"))
        self.golden = {a["id"]: a for a in golden}
        self.notes = notes

    def check(self, query: dict, answer: dict) -> list[str]:
        qid = query["id"]
        where = f"{qid}:"
        if "error" in answer:
            return [f"{where} error answer {answer['error']!r}"]
        problems = []
        if answer.get("id") != qid:
            problems.append(f"{where} answer id {answer.get('id')!r}")
        inv = answer["invariants"]
        for name, entry in inv.items():
            for rule in entry["trace"]:
                if rule not in self.rules:
                    problems.append(f"{where} {name} trace id {rule!r} is "
                                    f"not in docs/rules.md")
        if qid in self.golden:
            if answer != self.golden[qid]:
                problems.append(f"{where} differs from the golden answer")
            return problems
        family = query["family"]
        if family in FACT_KEYS:
            problems += self._fact(query, inv)
        else:
            if set(inv) != BUNDLE_KEYS:
                return problems + [f"{where} invariant keys {sorted(inv)}"]
            problems += self._chain(query, inv)
            problems += getattr(self, "_" + family)(query, inv, answer)
        return problems

    # -- all bundles ------------------------------------------------------

    def _chain(self, query, inv) -> list[str]:
        problems = []
        known = []
        for name in CHAIN + ("reidemeister",):
            value, trace = inv[name]["value"], inv[name]["trace"]
            ok = value in (INF, "unknown") or (
                isinstance(value, int) and not isinstance(value, bool)
                and value >= 0)
            if not ok:
                problems.append(f"{query['id']}: {name} value {value!r}")
            if value != "unknown" and not trace:
                problems.append(f"{query['id']}: {name} known, empty trace")
            if name in CHAIN and value != "unknown" and ok:
                known.append((name, value))
        for i, (hi_name, hi) in enumerate(known):
            for lo_name, lo in known[i + 1:]:
                if not _le(lo, hi):
                    problems.append(f"{query['id']}: chain {hi_name} >= "
                                    f"{lo_name} broken")
        mcc, reid = inv["mcc"]["value"], inv["reidemeister"]["value"]
        if (target_dim(query) != 2 and "unknown" not in (mcc, reid)
                and not _le(mcc, reid)):
            problems.append(f"{query['id']}: MCC <= Reidemeister broken")
        return problems

    @staticmethod
    def _expect(query, inv, expected: dict) -> list[str]:
        """Compare whole entries (value and trace)."""
        return [f"{query['id']}: {name} = {inv[name]}, expected {want}"
                for name, want in expected.items() if inv[name] != want]

    @staticmethod
    def _expect_values(query, inv, expected: dict) -> list[str]:
        return [f"{query['id']}: {name} = {inv[name]['value']!r}, expected "
                f"{want!r}" for name, want in expected.items()
                if inv[name]["value"] != want]

    # -- per family -------------------------------------------------------

    def _torus(self, query, inv, answer) -> list[str]:
        expected = torus_expected(query["payload"])
        det = expected.pop("det")
        problems = self._expect(query, inv, expected)
        if not query["payload"]["source_is_torus"]:
            note = answer["warnings"]
            if len(note) != 1 or f"|det| = {det} " not in note[0]:
                problems.append(f"{query['id']}: bound-chain warning {note}")
        return problems

    def _stiefel(self, query, inv, answer) -> list[str]:
        p = query["payload"]
        value, trace = stiefel_expected(p["r"], p["k"])
        shared = {"value": value, "trace": trace}
        expected = {name: shared for name in CHAIN[:5]}
        expected["n_z"] = {"value": "unknown", "trace": ["Thm1.2"]}
        expected["reidemeister"] = {"value": "unknown", "trace": []}
        return self._expect(query, inv, expected)

    def _sphere(self, query, inv, answer) -> list[str]:
        return self._expect_values(query, inv,
                                   sphere_expected(query["payload"]))

    def _spaceform(self, query, inv, answer) -> list[str]:
        p = query["payload"]
        order = p["group_order"]
        kind = self.notes[query["id"]]["kind"]
        if kind in ("odd-distinct", "even-distinct"):  # Thm 1.10
            mcc = order
            if kind == "even-distinct":
                mc = "unknown"
            else:  # Prop 4.3
                mc = {"no": INF, "yes": order}.get(p.get("in_psE_image"),
                                                   "unknown")
        else:  # selfcoincidences (Thm 1.15): loose iff the boundary vanishes
            mcc = mc = 1 if kind == "even-edel-nonzero" else 0
        return self._expect_values(query, inv, {
            "mc": mc, "mcc": mcc, "n_sharp": mcc, "n_tilde": "unknown",
            "n": "unknown", "n_z": "unknown", "reidemeister": order})

    def _projective(self, query, inv, answer) -> list[str]:
        row = self.notes[query["id"]]["row"]
        n_sharp, mcc, mc = TABLE_4_7[row]
        trace = ["Thm4.5", f"Table4.7-row{row}"]
        reid = 2 if query["payload"]["field"] == "R" else 1
        return self._expect(query, inv, {
            "n_sharp": {"value": n_sharp, "trace": trace},
            "mcc": {"value": mcc, "trace": trace},
            "mc": {"value": INF if mc is None else mc, "trace": trace},
            "reidemeister": {"value": reid, "trace": ["Reid3.5"]},
        })

    def _fact(self, query, inv) -> list[str]:
        key = FACT_KEYS[query["family"]]
        if set(inv) != {key}:
            return [f"{query['id']}: invariant keys {sorted(inv)}"]
        p = query["payload"]
        if query["family"] == "fixedpoint":  # Ex 3.9: surface dichotomy
            want = {"value": "no" if p["dim"] == 2 and p["chi"] < 0 else "yes",
                    "trace": ["Ex3.9"]}
        else:
            kind = self.notes[query["id"]]["kind"]
            want = {"R1": {"value": "yes", "trace": ["R1"]},
                    "R1-chi-zero": {"value": "yes", "trace": ["R1"]},
                    "R2": {"value": "yes", "trace": ["R2"]},
                    "kervaire": {"value": "no", "trace": ["R5"]}}[kind]
        if inv[key] != want:
            return [f"{query['id']}: {key} = {inv[key]}, expected {want}"]
        return []
