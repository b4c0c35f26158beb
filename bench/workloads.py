"""The four benchmark workloads: seeded inputs, timed jobs, output checks.

Each workload turns a ``random.Random`` into a fixed job list (the library
receives only those inputs), runs one job through the public nss functions,
and checks the job's output independently of the package's own reports.
Jobs look functions up on the nss modules at call time, so the traced run's
wrappers see every call.
``check`` returns the problems it found (an empty list for a correct job);
known defects that are not wrong outputs are exposed as counts in ``info``.
``digest`` renders a job's output exactly, so a repeated round can be compared
with a checked one instead of being checked again.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np

from nss import braids, gates, spaces, verify
from nss.braids import BraidWord
from nss.labels import ModelParams

from tracer import rebind

TWELVE_FIFTHS = Fraction(12, 5)


class Workload:
    """inputs(rng) -> jobs; run(job) -> (output, work units); check(job,
    output, info) -> problems; digest(output) -> exact text; describe(job);
    expected_counts(jobs, tracer) -> (label, traced, exact) triples."""

    def prepare(self):
        """Hooks installed after the tracer, before the first job."""


def exact_params(fr: Fraction) -> ModelParams:
    return ModelParams(float(fr), exact=fr)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

SEARCH_MAX_LEN = 9
SEARCH_THRESHOLD = 0.3
SEARCH_MAX_POWER = 2
SEARCH_JOBS = 2
# two first generators, 2 * max_power syllables per level
SEARCH_NODES = 2 * sum((2 * SEARCH_MAX_POWER) ** d for d in range(1, SEARCH_MAX_LEN + 1))
DISTINCT_TOL = 1e-8
DISTINCT_CRITERION = (f"M_i M_j^-1 = lambda I with |lambda| = 1, max-entry "
                      f"tolerance {DISTINCT_TOL:g}, hits re-evaluated by evaluate_word")


def count_distinct(mats, tol: float = DISTINCT_TOL) -> int:
    """Operators distinct up to a unit global phase."""
    eye = np.eye(4)
    inverses = np.empty((0, 4, 4), dtype=complex)
    for m in mats:
        if len(inverses):
            p = np.matmul(m, inverses)
            lam = np.trace(p, axis1=1, axis2=2) / 4
            dev = np.max(np.abs(p - lam[:, None, None] * eye), axis=(1, 2))
            if np.any((dev < tol) & (np.abs(np.abs(lam) - 1) < tol)):
                continue
        inverses = np.concatenate([inverses, np.linalg.inv(m)[None]])
    return len(inverses)


class Search(Workload):
    def inputs(self, rng):
        """12/5 first, then seeded exact rationals in (2.2, 2.8)."""
        alphas = [TWELVE_FIFTHS]
        while len(alphas) < SEARCH_JOBS:
            den = rng.randrange(50, 200)
            fr = Fraction(rng.randrange(math.ceil(2.2 * den) + 1, math.floor(2.8 * den)), den)
            if fr not in alphas:
                alphas.append(fr)
        return [exact_params(fr) for fr in alphas]

    def describe(self, p):
        return f"alpha={p.exact}"

    def run(self, p):
        hits = gates.search_low_leakage(p, SEARCH_MAX_LEN, SEARCH_THRESHOLD,
                                        jobs=1, max_power=SEARCH_MAX_POWER)
        return hits, SEARCH_NODES

    def expected_counts(self, jobs, tracer):
        return [("search nodes", tracer.counts["gates.search.nodes"], SEARCH_NODES * len(jobs)),
                ("search calls", tracer.calls["gates.search_low_leakage"], len(jobs))]

    def digest(self, hits):
        return "\n".join(f"{h.word} {h.report.su2_offdiag!r} {h.report.su11_offdiag!r}"
                         for h in hits)

    def check(self, p, hits, info):
        problems = []
        mats = []
        prev = None
        for h in hits:
            m = braids.evaluate_word(p, gates.PSI_LEAVES, h.word)
            n1, n2 = abs(m[0, 1]), abs(m[2, 3])
            r = h.report
            if abs(n1 - r.su2_offdiag) > 1e-9 or abs(n2 - r.su11_offdiag) > 1e-9:
                problems.append(f"{h.word}: norms ({n1}, {n2}) != reported "
                                f"({r.su2_offdiag}, {r.su11_offdiag})")
            if max(n1, n2) >= SEARCH_THRESHOLD:
                problems.append(f"{h.word}: leakage {max(n1, n2)} >= threshold")
            rank = (round(max(r.su2_offdiag, r.su11_offdiag), 12), len(h.word), str(h.word))
            if prev is not None and rank < prev:
                problems.append(f"{h.word}: out of (leakage, length, text) order")
            prev = rank
            mats.append(m)
        distinct = count_distinct(mats)
        info.setdefault("search_jobs", []).append(
            {"alpha": str(p.exact), "hits": len(hits), "distinct": distinct})
        return problems


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------

# LOW_LEAKAGE_WORD stops at k=4: k=5 needs dps 1735 and 3.7-4.7 s, over half
# a round, and k=6 needs dps 8552
RECURSION_KS = {"W_WORD": range(3, 7), "LOW_LEAKAGE_WORD": range(3, 5)}
DPS_GUARD = 30
GATE_STEPS = 3
LAW_TOL = 1e-9


def mp_log10_offdiag(m) -> tuple[float, float]:
    return (float(mpmath.log10(abs(m[0, 1]))), float(mpmath.log10(abs(m[2, 3]))))


class Recursion(Workload):
    """reichardt_iterate(extended=True) at 12/5, plus the float k=3 gate.

    ``reichardt_step`` is wrapped to keep the matrices it returns, so the
    fifth-power law is checked on the mp values themselves.
    """

    def __init__(self):
        self.params = exact_params(TWELVE_FIFTHS)
        self.log10_k0 = {}
        self.captured = []

    def inputs(self, rng):
        """Every (word, k) with dps sized to the digits its last step needs.

        The list and its order are fixed: the law holds only at 12/5, and
        mpmath caches constants at the highest precision computed so far,
        so reordering the jobs would change their cost.
        """
        jobs = [("gate", None, GATE_STEPS, None)]
        for name, ks in RECURSION_KS.items():
            m0 = braids.evaluate_word(self.params, gates.PSI_LEAVES, getattr(gates, name))
            self.log10_k0[name] = (math.log10(abs(m0[0, 1])), math.log10(abs(m0[2, 3])))
            depth = -min(self.log10_k0[name])
            for k in ks:
                jobs.append((name, getattr(gates, name), k,
                             math.ceil(depth * 5 ** k) + DPS_GUARD))
        return jobs

    def prepare(self):
        step = gates.reichardt_step

        def capturing_step(w, d):
            out = step(w, d)
            self.captured.append(out)
            return out

        rebind(step, capturing_step)

    def describe(self, job):
        name, _, k, dps = job
        return f"{name} k={k}" + (f" dps={dps}" if dps else " float")

    def run(self, job):
        name, word, k, dps = job
        self.captured = []
        if name == "gate":
            p = self.params
            w, d = gates.build_W(p).matrix, gates.build_D(p).matrix
            for _ in range(k):
                w = gates.reichardt_step(w, d)
            return gates.controlled_gate(spaces.qubit_space(p, 2), w, leak_tol=1e-4), k
        reports = gates.reichardt_iterate(self.params, word, k=k, extended=True, dps=dps)
        return (reports, self.captured, mpmath.mp.dps), k

    def expected_counts(self, jobs, tracer):
        steps = sum(k for name, _, k, _ in jobs if name != "gate")
        return [("mp recursion steps", tracer.calls["gates.reichardt_step.mp"], steps),
                ("float recursion steps", tracer.calls["gates.reichardt_step.float"], GATE_STEPS),
                ("controlled gates", tracer.calls["gates.controlled_gate"], 1)]

    def digest(self, out):
        if hasattr(out, "matrix"):
            return out.matrix.tobytes().hex()
        reports, mats, dps_after = out
        return repr(([r.as_dict() for r in reports], dps_after,
                     [str(m[0, 1]) + str(m[2, 3]) for m in mats]))

    def check(self, job, out, info):
        name, _, k, dps = job
        if name == "gate":
            rank = out.schmidt_rank
            return [] if rank == 2 else [f"controlled gate Schmidt rank {rank} != 2"]
        reports, mats, dps_after = out
        info["mp_dps_after"] = dps_after
        if len(reports) != k + 1 or len(mats) != k:
            return [f"{len(reports)} reports and {len(mats)} steps for k={k}"]
        problems = []
        prev = self.log10_k0[name]
        for r, m in zip(reports[1:], mats):
            cur = mp_log10_offdiag(m)
            for i in range(2):
                want = 5 * prev[i]
                if not abs(cur[i] - want) <= LAW_TOL * max(1.0, abs(want)):
                    problems.append(f"{name} k={r.k}: log10 offdiag {cur[i]} != 5 * {prev[i]}")
            if r.su2_offdiag == 0.0 or r.su11_offdiag == 0.0:
                info["underflowed_reports"] = info.get("underflowed_reports", 0) + 1
            prev = cur
        return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_CHECKS = 19
# pseudo-unitarity and two-qubit-blocks compare with an absolute 1e-10; their
# float defects cross it from about alpha 2.9718 and at every alpha from 2.9843
KNOWN_FAILS = frozenset({"pseudo-unitarity", "two-qubit-blocks"})
KNOWN_BAND_LO = 2.97
VERIFY_BANDS = [((2.0005, 2.02), 2), ((2.02, 2.97), 4), ((2.985, 2.9995), 2)]


class Verify(Workload):
    def inputs(self, rng):
        """(alpha, seed) pairs: two within 0.02 of each end, four between."""
        jobs = [(lo + (hi - lo) * rng.random(), rng.randrange(2 ** 31))
                for (lo, hi), n in VERIFY_BANDS for _ in range(n)]
        rng.shuffle(jobs)
        return [(ModelParams(a), s) for a, s in jobs]

    def describe(self, job):
        return f"alpha={job[0].alpha:.6f} seed={job[1]}"

    def run(self, job):
        res = verify.run_all(*job)
        return res, len(res)

    def expected_counts(self, jobs, tracer):
        statuses = sum(tracer.counts[f"verify.checks.{s}"] for s in ("pass", "fail", "skipped"))
        return [("run_all calls", tracer.calls["verify.run_all"], len(jobs)),
                ("checks run", tracer.calls["verify.check"], VERIFY_CHECKS * len(jobs)),
                ("check statuses", statuses, VERIFY_CHECKS * len(jobs))]

    def digest(self, results):
        return repr([r.as_dict() for r in results])

    def check(self, job, results, info):
        alpha = job[0].alpha
        names = [r.name for r in results]
        problems = []
        if len(results) != VERIFY_CHECKS or names != sorted(set(names)):
            problems.append(f"{len(results)} checks, names {names}")
        fails = [r.name for r in results if r.status == "fail"]
        bad = [r.status for r in results if r.status not in ("pass", "fail", "skipped")]
        if bad:
            problems.append(f"unknown statuses {bad}")
        unexpected = [n for n in fails if n not in KNOWN_FAILS or alpha < KNOWN_BAND_LO]
        if unexpected:
            problems.append(f"alpha {alpha}: failed {unexpected}")
        if fails and not problems:
            # the known defect: counted in failed_ratio, not a wrong output
            info["defect_jobs"] = info.get("defect_jobs", 0) + 1
            info.setdefault("defect_checks", Counter()).update(fails)
        return problems


# ---------------------------------------------------------------------------
# braid4q
# ---------------------------------------------------------------------------

BRAID_GENS = ("x",) + tuple(f"b{i}" for i in range(2, 9))
BRAID_EXTRA = 4
BRAID_JOBS = 30
BRAID_REL_TOL = 1e-10


class Braid4q(Workload):
    """evaluate_word of 12-letter words on the 4-qubit space (dim 70).

    Every word holds each of x, b2..b8 once plus four repeats, each generator
    with one seeded sign, so every job has eight distinct letters to assemble.
    """

    def inputs(self, rng):
        jobs = []
        for _ in range(BRAID_JOBS):
            alpha = 2.001 + 0.998 * rng.random()
            sign = {g: rng.choice((1, -1)) for g in BRAID_GENS}
            letters = list(BRAID_GENS) + [rng.choice(BRAID_GENS) for _ in range(BRAID_EXTRA)]
            rng.shuffle(letters)
            jobs.append((ModelParams(alpha), BraidWord.from_letters((g, sign[g]) for g in letters)))
        return jobs

    def describe(self, job):
        return f"alpha={job[0].alpha:.6f} word={job[1]}"

    def run(self, job):
        p, word = job
        space = spaces.qubit_space(p, 4)
        return (space, braids.evaluate_word(p, space.leaves, word)), len(word)

    def expected_counts(self, jobs, tracer):
        letters = sum(len(word) for _, word in jobs)
        return [("words", tracer.calls["braids.evaluate_word.float"], len(jobs)),
                ("letters", tracer.calls["braids.letter_matrix.float"], letters)]

    def digest(self, out):
        return np.asarray(out[1]).tobytes().hex()

    def check(self, job, out, info):
        space, m = out
        m = np.asarray(m, dtype=complex)
        if m.shape != (70, 70):
            return [f"shape {m.shape} != (70, 70)"]
        j = np.diag(space.metric_signs.astype(float))
        defect = float(np.max(np.abs(m.conj().T @ j @ m - j)))
        rel = defect / max(1.0, float(np.max(np.abs(m))) ** 2)
        info["max_rel_defect"] = max(info.get("max_rel_defect", 0.0), rel)
        if not rel <= BRAID_REL_TOL:
            return [f"{job[1]} at alpha {job[0].alpha}: relative defect {rel:.3e}"]
        return []


WORKLOADS = {"search": Search, "recursion": Recursion, "verify": Verify,
             "braid4q": Braid4q}
