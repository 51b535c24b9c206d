"""Workload inputs, the program calls that make one item, and known answers.

Inputs are plain Python data generated from the seed; only the item
runners touch idelink.  Known answers never come from idelink: every
check verdict of a closed-braid scenario is ``pass`` (the acceptance
criteria), and each lattice problem is built as ``U * diag(a)`` so its
invariants follow from gcd/lcm arithmetic done here.

This module imports nothing from idelink; a Runner is handed the package.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import gcd

WORKLOADS = ("sweep3", "wide4", "lattice")

# Smallest number of timed items in one run, so that p99 has at least
# ten samples beyond it.
MIN_ITEMS = 1000

SWEEP3_STRANDS = 3
SWEEP3_LENGTH = 4
SWEEP3_DEGREES = (2, 3, 4, 5)
# sha256 of the timing-stripped `idelink suite --max-strands 3
# --max-length 4 --degrees 2,3,4,5` report (json.dumps, indent=2,
# sort_keys=True, "millis" and "total_millis" removed).  Reports must
# not change byte for byte, apart from timing.
SWEEP3_REPORT_SHA256 = "cc26a26754db850a2ea42a6a63f898dba400cbcb780a7608003789335c9df739"

WIDE4_STRANDS = 4
WIDE4_LENGTHS = range(3, 9)
WIDE4_DEGREES = (2, 3, 4, 6, 12)
WIDE4_PER_STRATUM = 8  # 6 lengths x 5 degrees x 8 = 240 scenarios a pass

LATTICE_RANKS = range(6, 17)
LATTICE_PER_RANK = 40  # 11 ranks x 40 = 440 problems a pass
PASS_ITEMS = {
    "wide4": len(WIDE4_LENGTHS) * len(WIDE4_DEGREES) * WIDE4_PER_STRATUM,
    "lattice": len(LATTICE_RANKS) * LATTICE_PER_RANK,
}
# Diagonal entries: shared small primes so gcd and lcm both vary; one 0
# gives free rank.
LATTICE_DIAG_POOL = (0, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 18, 20, 24, 30, 36)


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + salt))


# --- scenario workloads -------------------------------------------------


def sweep3_scenarios() -> list[tuple[int, tuple[int, ...], int]]:
    """Every (strands, letters, degree) of the sweep, in `idelink suite` order."""
    out = []
    for strands in range(1, SWEEP3_STRANDS + 1):
        alphabet = [g for g in range(-(strands - 1), strands) if g]
        for length in range(SWEEP3_LENGTH + 1):
            for word in itertools.product(alphabet, repeat=length):
                out.extend((strands, word, n) for n in SWEEP3_DEGREES)
    return out


def wide4_scenario(seed: int, pass_no: int, k: int) -> tuple[int, tuple[int, ...], int]:
    """Scenario k of a pass: every (length, degree) gets WIDE4_PER_STRATUM words."""
    rng = _rng(seed, "wide4", pass_no, k)
    stratum = k // WIDE4_PER_STRATUM
    length = WIDE4_LENGTHS[stratum // len(WIDE4_DEGREES)]
    degree = WIDE4_DEGREES[stratum % len(WIDE4_DEGREES)]
    alphabet = [g for g in range(-(WIDE4_STRANDS - 1), WIDE4_STRANDS) if g]
    return WIDE4_STRANDS, tuple(rng.choice(alphabet) for _ in range(length)), degree


# --- lattice workload ---------------------------------------------------


def _unimodular(rng: random.Random, n: int, ops: int) -> list[list[int]]:
    """Row-major product of ``ops`` elementary column additions (det 1)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in m:
            row[i] += c * row[j]
    return m


def _generators(rng, u, diag):
    """Columns of u * diag * v for a random unimodular v, plus redundant sums."""
    n = len(u)
    v = _unimodular(rng, n, n)
    scaled = [[u[i][t] * diag[t] for t in range(n)] for i in range(n)]
    cols = [
        tuple(sum(scaled[i][t] * v[t][j] for t in range(n)) for i in range(n))
        for j in range(n)
    ]
    for _ in range(n // 2):
        coeff = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
        cols.append(tuple(sum(coeff[j] * cols[j][i] for j in range(n)) for i in range(n)))
    rng.shuffle(cols)
    return cols


def lattice_problem(rng: random.Random, n: int) -> dict:
    """A = U diag(a), B = U diag(b) in Z^n, given by mixed redundant generators."""
    u = _unimodular(rng, n, n)
    a = [rng.choice(LATTICE_DIAG_POOL) for _ in range(n)]
    b = [rng.choice(LATTICE_DIAG_POOL) for _ in range(n)]
    j = rng.randrange(n)
    return {
        "n": n,
        "a": a,
        "b": b,
        "cols_a": _generators(rng, u, a),
        "cols_b": _generators(rng, u, b),
        # U e_j lies in A exactly when a_j == 1.
        "probe": tuple(u[i][j] for i in range(n)),
        "probe_in_a": a[j] == 1,
    }


def lattice_problem_at(seed: int, pass_no: int, k: int) -> dict:
    """Problem k of a pass: every rank gets LATTICE_PER_RANK problems."""
    n = LATTICE_RANKS[k // LATTICE_PER_RANK]
    return lattice_problem(_rng(seed, "lattice", pass_no, k), n)


def _prime_exponents(x: int) -> dict[int, int]:
    out = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def invariant_chain(orders: list[int]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of the direct sum of Z/x, x >= 1.

    Same length as ``orders`` (leading ones kept): per prime, the sorted
    exponents are dealt out to the factors from the largest down.
    """
    per_prime: dict[int, list[int]] = {}
    for x in orders:
        for p, e in _prime_exponents(x).items():
            per_prime.setdefault(p, []).append(e)
    k = len(orders)
    chain = [1] * k
    for p, exps in per_prime.items():
        exps.sort()
        for i, e in enumerate(exps):
            chain[k - len(exps) + i] *= p**e
    return chain


def _quotient(cyclic: list[int]) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of the sum of Z/x over ``cyclic`` (x == 0 gives Z)."""
    finite = [x for x in cyclic if x]
    torsion = tuple(d for d in invariant_chain(finite) if d > 1)
    return len(cyclic) - len(finite), torsion


def _lcm(x: int, y: int) -> int:
    return 0 if x == 0 or y == 0 else x * y // gcd(x, y)


def lattice_answers(p: dict) -> dict:
    """Every invariant of the problem, from the construction alone."""
    a, b = p["a"], p["b"]
    g = [gcd(x, y) for x, y in zip(a, b)]
    l = [_lcm(x, y) for x, y in zip(a, b)]
    # (A + B) / (A cap B): per coordinate g Z / l Z, which is Z/(l/g), Z
    # when only l vanishes, and nothing when both vanish.
    rel = [0 if y == 0 else y // x for x, y in zip(g, l) if x]
    return {
        "quotients": [_quotient(d) for d in (a, b, g, l)],
        "relative": _quotient(rel),
        "snf_diagonal": invariant_chain([x for x in a if x]),
    }


# --- running one item ---------------------------------------------------


class Runner:
    """Builds program inputs, runs items and checks them for one workload.

    ``prepare`` turns plain inputs into what the program receives
    (BraidWords, column tuples); ``run`` is the timed program call;
    ``check`` compares one output against the known answer and returns
    an error string or None; ``report`` builds the suite report the way
    ``idelink suite`` does.
    """

    def __init__(self, workload: str, idelink):
        self.workload = workload
        self.il = idelink
        self.scenarios = workload in ("sweep3", "wide4")
        self._sweep3 = sweep3_scenarios() if workload == "sweep3" else None

    def count(self) -> int:
        """Items in one pass, which is one whole instance of the workload."""
        return len(self._sweep3) if self._sweep3 else PASS_ITEMS[self.workload]

    def plain(self, seed: int, pass_no: int, k: int):
        """Plain input k of a pass (pass-independent for sweep3)."""
        if self._sweep3:
            return self._sweep3[k]
        if self.workload == "wide4":
            return wide4_scenario(seed, pass_no, k)
        return lattice_problem_at(seed, pass_no, k)

    def order(self, seed: int, pass_no: int) -> list[int]:
        order = list(range(self.count()))
        _rng(seed, self.workload, "order", pass_no).shuffle(order)
        return order

    def inputs(self, seed: int, pass_no: int) -> list:
        """(index, plain input) pairs of one pass, in the order they run."""
        return [(k, self.plain(seed, pass_no, k)) for k in self.order(seed, pass_no)]

    def prepare(self, item):
        index, x = item
        if self.scenarios:
            strands, letters, degree = x
            return index, (self.il.BraidWord(strands, letters), degree)
        return index, x

    def run(self, x):
        il = self.il
        if self.scenarios:
            braid, degree = x
            return il.run_scenario(braid, degree)
        n = x["n"]
        a = il.SubLattice.from_columns(n, x["cols_a"])
        b = il.SubLattice.from_columns(n, x["cols_b"])
        s = il.lattice_sum(a, b)
        i = il.lattice_intersect(a, b)
        quotients = [il.quotient_invariants(n, m) for m in (a, b, s, i)]
        relative = il.relative_quotient_invariants(s, i)
        members = [
            (il.lattice_member(v, a), il.lattice_member(v, b))
            for v in i.canonical_form.columns()
        ]
        probe = il.lattice_member(x["probe"], a)
        contains = il.lattice_equal(il.lattice_sum(a, i), a)
        canon = a.canonical_form
        return quotients, relative, members, probe, contains, canon, il.snf(canon)

    def check(self, x, out) -> str | None:
        if self.scenarios:
            braid, degree = x
            names = [c.name for c in out.checks]
            if (out.strands, out.word, out.degree) != (braid.strands, braid.letters, degree):
                return "report names another scenario"
            if names != list(self.il.CHECKS):
                return f"ran checks {names}"
            bad = [c.name for c in out.checks if not c.passed]
            return f"checks failed: {bad}" if bad else None
        quotients, relative, members, probe, contains, canon, (u, d, v) = out
        want = lattice_answers(x)
        got = [(q.free_rank, q.torsion) for q in quotients]
        if got != want["quotients"]:
            return f"quotients {got} != {want['quotients']}"
        if (relative.free_rank, relative.torsion) != want["relative"]:
            return f"relative quotient {relative} != {want['relative']}"
        if not all(ina and inb for ina, inb in members):
            return "an intersection generator lies outside A or B"
        if probe != x["probe_in_a"]:
            return f"membership of U e_j in A: {probe} != {x['probe_in_a']}"
        if not contains:
            return "A + (A cap B) != A"
        return _check_snf(canon.entries, u.entries, d.entries, v.entries, want["snf_diagonal"])

    def report(self, done: list) -> str:
        """``done`` holds (index, output) pairs; returns the report text."""
        if not self.scenarios:
            return ""
        reports = tuple(out for _, out in sorted(done, key=lambda t: t[0]))
        if self.workload == "sweep3":
            bounds = (SWEEP3_STRANDS, SWEEP3_LENGTH, SWEEP3_DEGREES)
        else:
            bounds = (WIDE4_STRANDS, max(WIDE4_LENGTHS), WIDE4_DEGREES)
        result = self.il.SuiteResult(*bounds, reports=reports, complete=True)
        return json.dumps(result.to_json_dict(), indent=2, sort_keys=True)


def _matmul(x, y):
    return [
        [sum(row[t] * y[t][j] for t in range(len(y))) for j in range(len(y[0]) if y else 0)]
        for row in x
    ]


def bareiss_det(m) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    m = [list(r) for r in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _check_snf(m, u, d, v, diagonal) -> str | None:
    rows, cols = len(m), len(v)
    if _matmul(_matmul(u, m), v) != [list(r) for r in d]:
        return "snf: u * m * v != d"
    if abs(bareiss_det(u)) != 1 or abs(bareiss_det(v)) != 1:
        return "snf: a transform is not unimodular"
    got = [d[i][j] for i in range(rows) for j in range(cols) if i == j]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        return "snf: d is not diagonal"
    want = diagonal + [0] * (len(got) - len(diagonal))
    return None if got == want else f"snf diagonal {got} != {want}"


def strip_timing(doc):
    """The report without its timing fields, for byte comparison."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k not in ("millis", "total_millis")}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def report_digest(text: str) -> str:
    stripped = strip_timing(json.loads(text))
    return hashlib.sha256(json.dumps(stripped, indent=2, sort_keys=True).encode()).hexdigest()
