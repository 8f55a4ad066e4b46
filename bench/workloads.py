"""Seeded op streams for the three benchmark workloads.

A workload is a pool of rounds; a round is a fixed list of op kinds, and the
seed only picks each op's parameters, so two seeds give the same op-kind
counts. Every op is one `tfcert` CLI invocation: `argv` plus, when `config`
is set, a generated JSON config file. `facts` carries what the checker needs
to compare the report with closed forms (family, N, stretch, ...).

Why these three (see README.md for the layer each one loads):
- freq_side: quadrature Fourier transform and the dense decay scan dominate.
- window_design: STFT kernels, Hermite windows and the simplex search dominate.
- oracle_sweep: per-call overhead, linear algebra, 2-D paths and the adaptive
  oscillatory quadrature dominate; phase-sum kernels sit idle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("freq_side", "window_design", "oracle_sweep")

# Rounds per pool. One pass over a pool takes a third to a half of a 36 s
# run on a 2-core x86-64 container (freq_side: about four fifths, so that its
# few slow ops still cover eight seeded parameter sets), so a timed run repeats
# ops (exercising the identical-report check) and a traced run (one untraced
# plus one traced pass) stays well inside the time limit of one run.
POOL_ROUNDS = {"freq_side": 8, "window_design": 8, "oracle_sweep": 24}

SEARCH_BUDGET = 20
RECIPES = ("example1", "example2", "er_dependence", "gaussian_stft", "dilation_scan")


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    config: dict | None = None
    facts: dict = field(default_factory=dict)


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _family(rng: random.Random, name: str) -> tuple[dict, dict]:
    """A 1-D family spec and the facts a closed-form check needs."""
    if name == "gaussian":
        return {"family": "gaussian"}, {"family": "gaussian"}
    C, omega = _num(rng, 2.0, 10.0), _num(rng, 0.0, 6.0)
    return ({"family": "example1", "params": {"C": C, "omega": omega}},
            {"family": "example1", "C": C, "omega": omega})


def _distinct(rng: random.Random, n: int, lo: float, hi: float, gap: float) -> list:
    """n values in [lo, hi], pairwise at least `gap` apart."""
    out: list = []
    while len(out) < n:
        v = _num(rng, lo, hi)
        if all(abs(v - w) >= gap for w in out):
            out.append(v)
    return out


def _tf_rows(rng: random.Random, n: int, span: float = 3.0, *,
             distinct_times: bool = False, distinct_freqs: bool = False) -> list:
    """n pairwise-distinct 1-D time-frequency rows [x, omega]."""
    xs = _distinct(rng, n, -span, span, 0.05) if distinct_times else \
        [_num(rng, -span, span) for _ in range(n)]
    ws = _distinct(rng, n, -span, span, 0.05) if distinct_freqs else \
        [_num(rng, -span, span) for _ in range(n)]
    rows = [[x, w] for x, w in zip(xs, ws)]
    if len({tuple(r) for r in rows}) < n:
        return _tf_rows(rng, n, span, distinct_times=distinct_times,
                        distinct_freqs=distinct_freqs)
    return rows


def _op(kind: str, config: dict | None, facts: dict) -> Op:
    return Op(kind, tuple(kind.split()), config, facts)


def _freq_side(rng: random.Random, i: int) -> list:
    fams = ("gaussian", "example1")
    ops = []
    spec, facts = _family(rng, fams[i % 2])
    lam = _tf_rows(rng, rng.randint(2, 8), distinct_freqs=True)
    ops.append(_op("certify cor2", {"function": spec, "lambda": lam},
                   dict(facts, N=len(lam))))
    spec, facts = _family(rng, fams[(i + 1) % 2])
    lam = _tf_rows(rng, rng.randint(2, 8), distinct_freqs=True)
    r = _num(rng, 0.5, 2.0)
    ops.append(_op("certify cor3", {"function": spec, "lambda": lam, "r": r},
                   dict(facts, N=len(lam), r=r)))
    spec, facts = _family(rng, fams[i % 2])
    ops.append(_op("oracle metaplectic",
                   {"function": spec, "kind": "fourier_multiplier",
                    "r": _num(rng, -0.5, 0.5), "x": _num(rng, -1.5, 1.5),
                    "omega": _num(rng, -1.5, 1.5)}, facts))
    return ops


def _window_design(rng: random.Random, i: int, degree: int) -> list:
    fams = ("gaussian", "example1")
    ops = []
    spec, facts = _family(rng, fams[i % 2])
    ops.append(_op("oracle stft-identity",
                   {"function": spec, "u": _num(rng, -1.0, 1.0),
                    "eta": _num(rng, -1.0, 1.0)}, facts))
    spec, facts = _family(rng, fams[(i + 1) % 2])
    lam = _tf_rows(rng, rng.randint(2, 8))
    ops.append(_op("certify thm3", {"function": spec, "lambda": lam},
                   dict(facts, N=len(lam))))
    spec, facts = _family(rng, fams[i % 2])
    N = rng.randint(2, 6)
    ops.append(_op("window-search",
                   {"function": spec, "R": _num(rng, 1.5, 2.5), "N": N,
                    "degree": degree, "budget": SEARCH_BUDGET,
                    "seed": rng.randint(0, 2 ** 31 - 1)},
                   dict(facts, N=N, budget=SEARCH_BUDGET)))
    return ops


def _oracle_sweep(rng: random.Random, i: int) -> list:
    fams = ("gaussian", "example1")
    ops = []
    spec, facts = _family(rng, fams[i % 2])
    shifts = _distinct(rng, rng.randint(2, 6), -4.0, 4.0, 0.05)
    ops.append(_op("certify lemma1", {"function": spec, "shifts": shifts}, facts))
    for fam in fams:
        spec, facts = _family(rng, fam)
        lam = _tf_rows(rng, rng.randint(2, 8))
        ops.append(_op("certify thm1", {"function": spec, "lambda": lam},
                       dict(facts, N=len(lam))))
    spec, facts = _family(rng, fams[(i + 1) % 2])
    lam = _tf_rows(rng, rng.randint(2, 8), distinct_times=True)
    r = _num(rng, 0.5, 2.0)
    ops.append(_op("certify cor1", {"function": spec, "lambda": lam, "r": r},
                   dict(facts, N=len(lam), r=r)))
    sing = ("example2", "singular_cos")[i % 2]
    lam = _tf_rows(rng, rng.randint(2, 5), 4.0, distinct_times=True)
    ops.append(_op("certify thm2",
                   {"function": {"family": sing, "params": {"omega": _num(rng, 0.0, 3.0)}},
                    "lambda": lam}, {"family": sing}))
    spec, facts = _family(rng, fams[i % 2])
    lam = _tf_rows(rng, rng.randint(2, 64), 4.0)
    ops.append(_op("oracle gram", {"function": spec, "lambda": lam},
                   dict(facts, dim=1)))
    lam2, n2 = [], rng.randint(2, 4)
    while len(lam2) < n2:
        row = [_num(rng, -2.0, 2.0) for _ in range(4)]
        if row not in lam2:
            lam2.append(row)
    ops.append(_op("oracle gram",
                   {"dimension": 2, "function": {"family": "gaussian", "params": {"n": 2}},
                    "lambda": lam2}, {"family": "gaussian", "dim": 2}))
    spec, facts = _family(rng, fams[(i + 1) % 2])
    ops.append(_op("oracle collocation",
                   {"function": spec, "lambda": _tf_rows(rng, rng.randint(2, 8))}, facts))
    ops.append(_op("oracle er-residual",
                   {"er": {"half_width": _num(rng, 2.9, 3.1), "step": 0.125,
                           "quad_tol": 1e-9}}, {}))
    for name in RECIPES:
        ops.append(Op(f"reproduce {name}", ("reproduce", name)))
    return ops


def pool(workload: str, seed: int, rounds: int | None = None) -> list:
    """The workload's rounds of ops for `seed` (a list of lists of `Op`)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    n = POOL_ROUNDS[workload] if rounds is None else rounds
    if workload == "freq_side":
        return [_freq_side(rng, i) for i in range(n)]
    if workload == "oracle_sweep":
        return [_oracle_sweep(rng, i) for i in range(n)]
    # Each block of four searches covers Hermite degrees 0-3 once, in seeded order.
    degrees: list = []
    while len(degrees) < n:
        block = [0, 1, 2, 3]
        rng.shuffle(block)
        degrees += block
    return [_window_design(rng, i, degrees[i]) for i in range(n)]
