"""The three benchmark workloads: seeded CLI inputs and their pass rules.

A workload yields an endless, seed-determined sequence of ops (one op = one
``flatring.cli.main(argv)`` call) and judges each op's captured output
against the oracles in ``oracles.py``.  Points go on the command line as
``--point=x,y,z`` because argparse reads ``--point -1.0,...`` as a flag.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from oracles import (
    DISTANCE_RESOLUTION,
    flatring_point,
    inverse_distance,
    quarter_periods,
    toroidal_point,
)


@dataclass
class Op:
    argv: list[str]
    expect: object  # what the workload's check needs to judge the output


@dataclass
class Verdict:
    # "pass"; "miss" for a finite result outside the pass rule; "invalid" for
    # output that is unreadable, incomplete or not finite
    status: str
    rel_err: float = math.nan  # worst relative error against the oracle
    note: str = ""
    facts: dict = field(default_factory=dict)  # certificates for the traced run


def _xyz(q) -> str:
    return ",".join(repr(float(c)) for c in q)


def _point_arg(flag: str, q) -> str:
    return f"{flag}={_xyz(q)}"


def _invalid(note: str) -> Verdict:
    return Verdict("invalid", note=note)


def _flatring_sample(rng, k: float, t_lo: float, t_hi: float):
    """Cartesian point at uniform s in (-2K, 2K), t in [t_lo, t_hi] K' and phi."""
    big_k, kp = quarter_periods(k)
    s = rng.uniform(-2.0 * big_k, 2.0 * big_k)
    t = rng.uniform(t_lo, t_hi) * kp
    return flatring_point(s, t, rng.uniform(-math.pi, math.pi), k)


class Workload:
    name = ""
    why = ""
    # Set-ups per untraced run; setup_s reports their median.  A cold green or
    # dirichlet set-up takes 7-25 s, so more than one would not fit the budget.
    setups = 1
    resolution = DISTANCE_RESOLUTION

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def ops(self):
        raise NotImplementedError

    def check(self, op: Op, stdout: str, stderr: str) -> Verdict:
        raise NotImplementedError


class _Expansion(Workload):
    """A `green` report for one point pair, judged against 1/|r - r*|.

    The pass rule is a fixed relative tolerance, a power of ten above the
    worst error the (20, 20) truncation reaches anywhere in the workload's
    input region.  The expansion's own tail estimate does not bound the true
    error on every pair, so it is recorded (`covered`) but is not the gate.
    """

    ARGS: list[str] = []
    TOL = 0.0

    def _pairs(self):
        """Endless (r, r*) point pairs, inner point first."""
        raise NotImplementedError

    def ops(self):
        for r, r_star in self._pairs():
            yield Op(self.ARGS + [_point_arg("--point", r), _point_arg("--point-star", r_star)],
                     inverse_distance(r, r_star))

    def check(self, op, stdout, stderr):
        try:
            report = json.loads(stdout)
            value = float(report["value"])
            tail = float(report["tail_estimate"])
        except (ValueError, KeyError, TypeError) as exc:
            return _invalid(f"unreadable report: {exc!r}")
        if not (math.isfinite(value) and math.isfinite(tail)):
            return _invalid(f"non-finite value {value!r} or tail {tail!r}")
        direct = op.expect
        err = abs(value - direct)
        facts = {"tail_rel": tail / direct, "covered": err <= tail}
        if err <= self.TOL * direct:
            return Verdict("pass", err / direct, "", facts)
        return Verdict("miss", err / direct, f"error {err:.3e} (tail estimate {tail:.3e})", facts)


class Green(_Expansion):
    name = "green"
    why = "(20, 20) flat-ring expansion: one first- and second-kind basis build, then many pair evaluations"
    K = 0.5
    ARGS = ["green", "--k", "0.5", "--m-max", "20", "--n-max", "20"]
    TOL = 1e-4  # the region's worst pair, the set-up op below, is off by 6.7e-5

    def _pairs(self):
        # The set-up op is the region's hardest pair (t = 0.3 K', t* = 0.6 K',
        # same s and phi), so min_digits is the worst case of the region in
        # every run rather than the worst of ~160 random pairs.
        kp = quarter_periods(self.K)[1]
        yield (flatring_point(0.0, 0.3 * kp, 0.0, self.K),
               flatring_point(0.0, 0.6 * kp, 0.0, self.K))
        while True:
            yield (_flatring_sample(self.rng, self.K, 0.1, 0.3),
                   _flatring_sample(self.rng, self.K, 0.6, 0.8))


class Toroidal(_Expansion):
    name = "toroidal"
    why = "(20, 20) toroidal expansion: Legendre P and Q per term, no Lame layer"
    setups = 11  # a set-up takes ~0.35 s, mostly importing scipy.integrate; one sample is noise
    ARGS = ["green", "--toroidal", "--m-max", "20", "--n-max", "20"]
    TOL = 1e-5  # the region's worst corner (tau* -> 1, tau = tau* + 1.2) is off by 2.9e-6

    def _point(self, tau: float):
        return toroidal_point(tau, self.rng.uniform(-math.pi, math.pi),
                              self.rng.uniform(-math.pi, math.pi))

    def _pairs(self):
        # The set-up op is the region's worst pair, as on green.
        yield toroidal_point(2.2, 0.0, 0.0), toroidal_point(1.0, 0.0, math.pi)
        while True:
            tau_star = self.rng.uniform(0.3, 1.0)
            tau = tau_star + self.rng.uniform(1.2, 2.5)
            yield self._point(tau), self._point(tau_star)


_PARSEVAL = re.compile(r"parseval_residual=(?:np\.float64\()?([^)\s]+)")


class Dirichlet(Workload):
    name = "dirichlet"
    why = "interior point-source solve at CLI defaults: first-kind projection and probes, no second kind, no Legendre"
    K = 0.5
    N_PROBES = 20
    # A power of ten above the region's worst probe: 1.8e-4, at t = 0.24 K'
    # straight below a source at t* = 0.7 K'.
    TOL = 1e-3
    PARSEVAL_TOL = 1e-6

    def ops(self):
        # The set-up op holds the region's worst probe, so min_digits is the
        # worst case of the region in every run rather than that of ~200
        # random probes.
        kp = quarter_periods(self.K)[1]
        source = flatring_point(0.0, 0.7 * kp, 0.0, self.K)
        fixed = [flatring_point(0.0, 0.24 * kp, 0.0, self.K)]
        while True:
            probes = fixed + [_flatring_sample(self.rng, self.K, 0.05, 0.24)
                              for _ in range(self.N_PROBES - len(fixed))]
            yield Op(["dirichlet", "--boundary", "point-source", _point_arg("--source", source),
                      "--probes=" + ";".join(map(_xyz, probes))],
                     [inverse_distance(q, source) for q in probes])
            source = _flatring_sample(self.rng, self.K, 0.7, 0.85)
            fixed = []

    def check(self, op, stdout, stderr):
        found = _PARSEVAL.search(stderr)
        try:
            rows = json.loads(stdout)
            values = [float(row["value"]) for row in rows]
            parseval = float(found.group(1)) if found else math.nan
        except (ValueError, KeyError, TypeError) as exc:
            return _invalid(f"unreadable output: {exc!r}")
        if len(values) != len(op.expect):
            return _invalid(f"{len(values)} probe values for {len(op.expect)} probes")
        if not (all(map(math.isfinite, values)) and math.isfinite(parseval)):
            return _invalid("non-finite probe value or Parseval residual")
        rel = max(abs(v - d) / d for v, d in zip(values, op.expect))
        facts = {"parseval": parseval}
        if parseval > self.PARSEVAL_TOL:
            return Verdict("miss", rel, f"Parseval residual {parseval:.3e}", facts)
        if rel > self.TOL:
            return Verdict("miss", rel, f"probe error {rel:.3e}", facts)
        return Verdict("pass", rel, "", facts)


WORKLOADS = {w.name: w for w in (Green, Dirichlet, Toroidal)}
