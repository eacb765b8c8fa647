"""Closed-form upper bounds on the number of 1-identifiable nodes.

Every scenario shares one pipeline: an encoding budget ``N_max`` (how many
node-path incidences the m paths can spend), the largest complete
crossing-number layer ``i_max`` that fits in it, and the final count

    sum_{i<=i_max} C(m,i)  +  floor((N_max - sum_{i<=i_max} i*C(m,i)) / (i_max+1))

capped by the node count n. What changes between scenarios is only the cap
inside ``N_max``: 2^(m-1) under arbitrary routing, 2(m-1) under consistent
routing, 2q(m-1) under 1/q-consistent routing, and tree-shaped budgets for
client/server monitoring. All arithmetic is exact (ints and Fractions); the
floor boundaries are the whole content, so no floats anywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Sequence

Rational = int | Fraction


class Scenario(str, Enum):
    ARBITRARY_AVG = "arbitrary-avg"
    ARBITRARY_MAX = "arbitrary-max"
    ARBITRARY_UNBOUNDED = "arbitrary-unbounded"
    CONSISTENT_AVG = "consistent-avg"
    CONSISTENT_MAX = "consistent-max"
    PARTIAL_CONSISTENT = "partial-consistent"
    SINGLE_SERVER = "single-server"
    MULTI_FIXED = "multi-fixed"
    MULTI_FLEXIBLE = "multi-flexible"


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound plus the inputs and intermediates that produced it."""

    scenario: str
    m: int
    n: int | None
    d: Fraction | None
    d_kind: str | None  # "avg" | "max" | None
    n_max: int | None
    i_max: int | None
    bound: int
    q: int | None = None
    servers: int | None = None
    clients_per_server: tuple[int, ...] | None = None
    n_max_exact: Fraction | None = None  # pre-floor budget when it was fractional
    notes: tuple[str, ...] = ()

    def as_json_dict(self) -> dict:
        out: dict = {
            "scenario": self.scenario,
            "m": self.m,
            "n": self.n,
            "d": None if self.d is None else str(self.d),
            "d_kind": self.d_kind,
            "n_max": self.n_max,
            "i_max": self.i_max,
            "bound": self.bound,
        }
        if self.q is not None:
            out["q"] = self.q
        if self.servers is not None:
            out["servers"] = self.servers
        if self.clients_per_server is not None:
            out["clients_per_server"] = list(self.clients_per_server)
        if self.n_max_exact is not None:
            out["n_max_exact"] = str(self.n_max_exact)
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")


def _cap_by_n(value: int, n: int | None) -> int:
    """``value`` capped by the node count n (None = no cap)."""
    if n is not None and n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")
    return value if n is None else min(value, n)


def _as_fraction(d: Rational, name: str) -> Fraction:
    d = Fraction(d)
    if d <= 0:
        raise ValueError(f"{name} must be positive")
    return d


def _integral_budget(m: int, d: Fraction) -> int:
    total = m * d
    if total.denominator != 1:
        raise ValueError(
            f"m*d = {total} is not an integer; the encoding budget N_max must be integral"
        )
    return int(total)


# Per-path cap on the encoding budget of each routing-constrained scenario, as
# a function of (m, q); their N_max is min(m*d, m*cap).
_PATH_CAPS = {
    Scenario.ARBITRARY_AVG: lambda m, q: 1 << (m - 1),
    Scenario.ARBITRARY_MAX: lambda m, q: 1 << (m - 1),
    Scenario.CONSISTENT_AVG: lambda m, q: 2 * (m - 1),
    Scenario.CONSISTENT_MAX: lambda m, q: 2 * (m - 1),
    Scenario.PARTIAL_CONSISTENT: lambda m, q: min(1 << (m - 1), 2 * q * (m - 1)),
}


def _warn_degenerate_m1(scenario: Scenario) -> tuple[str, ...]:
    note = (
        f"{scenario.value}: m=1 is outside the theorem precondition m>1; "
        "the 2(m-1)-style cap is applied literally and yields N_max=0"
    )
    warnings.warn(note, stacklevel=3)
    return (note,)


def n_max(
    scenario: Scenario,
    m: int,
    d: Rational | None = None,
    q: int | None = None,
    m_s: Sequence[int] | None = None,
    s: int | None = None,
) -> int:
    """Scenario-specific encoding budget N_max, always an exact integer.

    The flexible-assignment budget may be fractional before flooring; use
    :func:`n_max_flexible_exact` for the pre-floor rational.
    """
    return _budget(scenario, m, d, q, m_s, s)[0]


def _budget(
    scenario: Scenario,
    m: int,
    d: Rational | None,
    q: int | None,
    m_s: Sequence[int] | None,
    s: int | None,
) -> tuple[int, Fraction | None]:
    """N_max, and the pre-floor rational it came from when flooring changed it."""
    _check_m(m)
    if scenario is Scenario.ARBITRARY_UNBOUNDED:
        return m * (1 << (m - 1)), None
    if scenario in _PATH_CAPS:
        if scenario is Scenario.PARTIAL_CONSISTENT and (q is None or q < 1):
            raise ValueError("partial consistency requires q >= 1")
        # the integrality requirement is on m*d itself (sum of integer lengths),
        # so validate before applying the scenario cap
        budget = _integral_budget(m, _as_fraction(d, "d"))
        return min(budget, m * _PATH_CAPS[scenario](m, q)), None
    if scenario is Scenario.MULTI_FIXED:
        if m_s is None:
            raise ValueError("multi-fixed requires the per-server client vector m_s")
        return _nmax_multi_fixed(tuple(m_s), m, _as_fraction(d, "d")), None
    if scenario is Scenario.MULTI_FLEXIBLE:
        if s is None:
            raise ValueError("multi-flexible requires the server count S")
        exact = n_max_flexible_exact(m, s, d)
        nmax = exact.numerator // exact.denominator
        return nmax, exact if exact != nmax else None
    raise ValueError(f"scenario {scenario} has no N_max formula (use bound() instead)")


def _nmax_multi_fixed(m_s: tuple[int, ...], m: int, d: Fraction) -> int:
    """Sum of the per-server tree budgets psi_tree(m_s) + 2 m_s (m - m_s),
    capped by m*d. The theorem needs every server to have a client and the
    per-server counts to sum to m."""
    if any(v < 1 for v in m_s):
        raise ValueError(f"every per-server client count must be >= 1, got m_s={list(m_s)}")
    if sum(m_s) < m:
        raise ValueError(f"m={m} clients exceed the total client slots sum(m_s)={sum(m_s)}")
    if sum(m_s) > m:
        raise ValueError(f"client slots m_s={list(m_s)} sum to more than the m={m} clients")
    tree_side = sum(psi_tree(v) + 2 * v * (m - v) for v in m_s)
    return min(_integral_budget(m, d), tree_side)


def n_max_flexible_exact(m: int, s: int, d: Rational) -> Fraction:
    """Pre-floor flexible-assignment budget min{m*d, m^2(2 - 3/(2S)) + 3m/2 - S},
    for 1 <= S <= m: an idle server would still be charged in the -S term."""
    _check_m(m)
    if s < 1:
        raise ValueError("S must be >= 1")
    if s > m:
        raise ValueError(f"S={s} servers exceed the m={m} clients; every server needs a client")
    dd = _as_fraction(d, "d")
    relaxed = Fraction(m * m) * (2 - Fraction(3, 2 * s)) + Fraction(3 * m, 2) - s
    return min(Fraction(_integral_budget(m, dd)), relaxed)


def i_max(m: int, nmax: int) -> int:
    """Largest k (capped at m) with sum_{i<=k} i*C(m,i) <= N_max; 0 if even k=1 fails."""
    if nmax < 0:
        raise ValueError("N_max must be nonnegative")
    _check_m(m)
    total = 0
    best = 0
    for k in range(1, m + 1):
        total += k * comb(m, k)
        if total > nmax:
            break
        best = k
    return best


def bound_from_nmax(m: int, n: int | None, nmax: int) -> int:
    """The layer-counting bound for a given budget, capped by n (None = no cap)."""
    imax = i_max(m, nmax)
    layers = sum(comb(m, i) for i in range(1, imax + 1))
    spent = sum(i * comb(m, i) for i in range(1, imax + 1))
    return _cap_by_n(layers + (nmax - spent) // (imax + 1), n)


def z_fb(leaves: int) -> int:
    """Node count of a full binary tree with the given number of leaves."""
    return max(0, 2 * leaves - 1)


def psi_tree(m_s: int) -> int:
    """Cap on the summed identifiable-node path lengths of one m_s-leaf monitoring tree."""
    if m_s < 1:
        raise ValueError("m_s must be >= 1")
    return (m_s * m_s + 3 * m_s - 2) // 2


def _ceil_log2(m: int) -> int:
    return (m - 1).bit_length()


def bound_single_server(m: int, n: int | None, d_max: int) -> BoundResult:
    """Single-server bound: full-binary-tree node count, or the perfect-tree
    composition when the depth cap bites."""
    _check_m(m)
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if d_max < 2 and m > 1:
        raise ValueError("d_max must be >= 2 when m > 1 (a root-to-leaf path needs two nodes)")
    if d_max >= _ceil_log2(m) + 1:
        value = z_fb(m)
    else:
        cap = 1 << (d_max - 2)
        value = 1 + (m // cap) * z_fb(cap) + z_fb(m % cap)
    return BoundResult(
        scenario=Scenario.SINGLE_SERVER.value,
        m=m,
        n=n,
        d=Fraction(d_max),
        d_kind="max",
        n_max=None,
        i_max=None,
        bound=_cap_by_n(value, n),
    )


def bound_multi_fixed(m_s: Sequence[int], m: int, n: int | None, d: Rational) -> BoundResult:
    return bound(Scenario.MULTI_FIXED, m, n, d, m_s=m_s)


def bound_multi_flexible(m: int, s: int, n: int | None, d: Rational) -> BoundResult:
    return bound(Scenario.MULTI_FLEXIBLE, m, n, d, s=s)


def bound(
    scenario: Scenario | str,
    m: int,
    n: int | None,
    d: Rational | None = None,
    q: int | None = None,
    m_s: Sequence[int] | None = None,
    s: int | None = None,
) -> BoundResult:
    """Dispatch a scenario through N_max -> i_max -> layer bound.

    ``d`` is the average path length for the *-avg scenarios (and the two
    multi-server ones) and the maximum path length for the *-max and
    single-server scenarios; the unbounded scenario takes no d at all.
    """
    scenario = Scenario(scenario)
    _check_m(m)
    if scenario is Scenario.ARBITRARY_UNBOUNDED:
        return BoundResult(
            scenario=scenario.value, m=m, n=n, d=None, d_kind=None,
            n_max=None, i_max=None, bound=_cap_by_n((1 << m) - 1, n),
        )
    if d is None:
        raise ValueError(f"scenario {scenario.value} requires a path-length parameter")
    if scenario is Scenario.SINGLE_SERVER:
        dd = Fraction(d)
        if dd.denominator != 1:
            raise ValueError("single-server d_max must be an integer")
        return bound_single_server(m, n, int(dd))

    notes: tuple[str, ...] = ()
    cap = _PATH_CAPS.get(scenario)
    if m == 1 and cap is not None and cap(1, 1) == 0:  # q cannot lift a cap with factor m-1
        notes = _warn_degenerate_m1(scenario)
    nmax, exact = _budget(scenario, m, d, q, m_s, s)
    servers = clients = None
    if scenario is Scenario.MULTI_FIXED:
        clients = tuple(m_s)
        servers = len(clients)
    elif scenario is Scenario.MULTI_FLEXIBLE:
        servers = s
    return BoundResult(
        scenario=scenario.value,
        m=m,
        n=n,
        d=Fraction(d),
        d_kind="max" if scenario.value.endswith("-max") else "avg",
        n_max=nmax,
        i_max=i_max(m, nmax),
        bound=bound_from_nmax(m, n, nmax),
        q=q if scenario is Scenario.PARTIAL_CONSISTENT else None,
        servers=servers,
        clients_per_server=clients,
        n_max_exact=exact,
        notes=notes,
    )
