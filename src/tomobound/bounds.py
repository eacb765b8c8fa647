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

import sys
import warnings
from enum import Enum
from fractions import Fraction
from typing import Sequence

from ._record import record

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


@record
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
        """The JSON form; a ValueError names any field too long to print."""
        for name in ("d", "n_max", "n_max_exact"):
            value = getattr(self, name)
            if value is not None and _too_long_to_print(value):
                raise ValueError(
                    f"{name} has more than {_digit_limit()} decimal digits, too many to print"
                )
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


def _digit_limit() -> int:
    """Python's cap on the decimal digits of an int turned into text; 0 when
    there is none (before Python 3.10.7, or switched off)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit is not None else 0


def _too_long_to_print(x: Rational) -> bool:
    limit, big = _digit_limit(), max(abs(x.numerator), x.denominator)
    return limit > 0 and big.bit_length() > 3 * limit and big >= 10**limit  # 2**(3*limit) < 10**limit


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


def _integral_total(m: int, d: Fraction) -> int:
    total = m * d
    if total.denominator != 1:
        shown = "m*d" if _too_long_to_print(total) else f"m*d = {total}"
        raise ValueError(f"{shown} is not an integer; the encoding budget N_max must be integral")
    return int(total)


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
    return min(_integral_total(m, d), tree_side)


def layer_bound(m: int, n: int | None, nmax: int) -> tuple[int, int]:
    """``(i_max, bound)`` for an encoding budget N_max over m paths.

    i_max is the largest k (capped at m) with sum_{i<=k} i*C(m,i) <= N_max,
    0 if even k=1 fails; the bound is the layer-counting count of the module
    docstring, capped by n (None = no cap). One pass over k steps the
    binomial as C(m,k+1) = C(m,k)(m-k)/(k+1)."""
    if nmax < 0:
        raise ValueError("N_max must be nonnegative")
    _check_m(m)
    k = layers = spent = 0  # sum_{i<=k} C(m,i) and sum_{i<=k} i*C(m,i)
    c = 1  # C(m,k)
    while k < m:
        c = c * (m - k) // (k + 1)
        if spent + (k + 1) * c > nmax:
            break
        k += 1
        layers += c
        spent += k * c
    return k, _cap_by_n(layers + (nmax - spent) // (k + 1), n)


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
        # 2^m - 1 >= n exactly when m >= n.bit_length(); build 2^m only below that
        full = n if n is not None and m >= n.bit_length() else (1 << m) - 1
        return BoundResult(
            scenario=scenario.value, m=m, n=n, d=None, d_kind=None,
            n_max=None, i_max=None, bound=_cap_by_n(full, n),
        )
    if d is None:
        raise ValueError(f"scenario {scenario.value} requires a path-length parameter")
    if scenario is Scenario.SINGLE_SERVER:
        dd = Fraction(d)
        if dd.denominator != 1:
            raise ValueError("single-server d_max must be an integer")
        return bound_single_server(m, n, int(dd))

    consistent = (Scenario.CONSISTENT_AVG, Scenario.CONSISTENT_MAX)
    notes: tuple[str, ...] = ()
    if m == 1 and scenario in (*consistent, Scenario.PARTIAL_CONSISTENT):
        # q cannot lift a cap with factor m-1
        notes = (
            f"{scenario.value}: m=1 is outside the theorem precondition m>1; "
            "the 2(m-1)-style cap is applied literally and yields N_max=0",
        )
        warnings.warn(notes[0], stacklevel=2)
    exact = servers = clients = None
    if scenario is Scenario.MULTI_FIXED:
        if m_s is None:
            raise ValueError("multi-fixed requires the per-server client vector m_s")
        clients = tuple(m_s)
        servers = len(clients)
        nmax = _nmax_multi_fixed(clients, m, _as_fraction(d, "d"))
    elif scenario is Scenario.MULTI_FLEXIBLE:
        if s is None:
            raise ValueError("multi-flexible requires the server count S")
        if s < 1:
            raise ValueError("S must be >= 1")
        if s > m:
            raise ValueError(f"S={s} servers exceed the m={m} clients; every server needs a client")
        servers = s
        # pre-floor flexible-assignment budget min{m*d, m^2(2 - 3/(2S)) + 3m/2 - S},
        # for 1 <= S <= m: an idle server would still be charged in the -S term
        relaxed = Fraction(m * m) * (2 - Fraction(3, 2 * s)) + Fraction(3 * m, 2) - s
        exact = min(Fraction(_integral_total(m, _as_fraction(d, "d"))), relaxed)
        nmax = exact.numerator // exact.denominator
        if exact == nmax:
            exact = None
    else:
        if scenario is Scenario.PARTIAL_CONSISTENT and (q is None or q < 1):
            raise ValueError("partial consistency requires q >= 1")
        # the integrality requirement is on m*d itself (sum of integer lengths),
        # so validate before applying the per-path cap: 2(m-1) encodings under
        # consistent routing, 2^(m-1) under arbitrary, and both 2^(m-1) and
        # 2q(m-1) under 1/q-consistent routing
        nmax = _integral_total(m, _as_fraction(d, "d"))
        if scenario in consistent:
            nmax = min(nmax, 2 * m * (m - 1))
        else:
            # 2^(m-1) > nmax when m-1 >= nmax.bit_length(); build it only below that
            if m - 1 < nmax.bit_length():
                nmax = min(nmax, m << (m - 1))
            if scenario is Scenario.PARTIAL_CONSISTENT:
                nmax = min(nmax, 2 * q * m * (m - 1))
    imax, value = layer_bound(m, n, nmax)
    return BoundResult(
        scenario=scenario.value,
        m=m,
        n=n,
        d=Fraction(d),
        d_kind="max" if scenario.value.endswith("-max") else "avg",
        n_max=nmax,
        i_max=imax,
        bound=value,
        q=q if scenario is Scenario.PARTIAL_CONSISTENT else None,
        servers=servers,
        clients_per_server=clients,
        n_max_exact=exact,
        notes=notes,
    )
