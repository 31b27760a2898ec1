"""Polynomials on a product grid of rationals, compiled into one generator of nested loops."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .poly import _CHAIN, Poly, _integer_rows, _literal, _power


def grid_nest(
    polys: Sequence[Poly], variables: Sequence[str], vanishing: Sequence[bool], solved: tuple[int, Poly, Poly] | None = None
) -> Callable[..., Iterator[tuple[dict[str, Fraction], list[int]]]]:
    """``polys`` on a product grid, compiled into one generator ``nest(d_0,
    ..., d_n-1, one)`` of nested loops, variable i of ``variables`` over the
    sorted Fractions d_i.  It yields (point, values) for each point whose
    leading values vanish as ``vanishing`` says (True: the value is 0), the
    values being the numerators ``IntegerEvaluator(polys)`` gives there when
    ``polys`` hold the equation that ``solved`` solves.  ``solved`` = (i,
    a, b), a and b free of x_i and the variables after it, runs x_i (listed
    last in a point) over the roots of a + b*x_i = 0: -a/b where b != 0
    (only when ``one``), all of d_i where a = b = 0, none otherwise."""
    s, pair = (solved[0], _integer_rows(solved[1:], variables)[1]) if solved else (len(variables), [])
    rows = _integer_rows(polys, variables)[1]
    degrees = [max((mono[i] for row in rows + pair for mono, _ in row), default=0) for i in range(len(variables))]
    namespace: dict = {"Fraction": Fraction}
    exec(compile(_nest_source(degrees, rows, vanishing, variables, s, pair), "<nest>", "exec"), namespace)
    return namespace["nest"]


def _nest_source(degrees, rows, vanishing, variables, solved, pair) -> str:
    """Python source of ``grid_nest``'s generator, by the multivariate Horner
    scheme (J. M. Peña & T. Sauer, SIAM J. Numer. Anal. 37(4), 2000).  In the
    loop of variable L - 1, a row's terms of equal exponents from variable L on
    form a sub-row sum k * prod_(i < L) w_i_(e_i), w_i_e = p_i^e * q_i^(d_i - e),
    named once per term set: sum_e w_(L-1)_e times a sub-row of the loop
    before.  The solved variable's (a, b) are two more in its loop."""
    n, named, powers = len(degrees), {}, {}
    levels: list[list[str]] = [[] for _ in range(n + 1)]

    def sub(level: int, terms: tuple) -> str:
        key, i, groups = (level, frozenset(terms)), level - 1, {}
        if level == 0 or not terms:
            return _literal(sum(k for _, k in terms))
        if key not in named:
            for head, k in terms:
                groups.setdefault(head[i], []).append((head[:i], k))
            parts = []
            for e, group in sorted(groups.items()):
                inner = sub(i, tuple(group))
                if degrees[i] and (i, e) not in powers:
                    powers[i, e] = _power(i, e, degrees[i])
                    if "*" in powers[i, e]:  # a bare p_i or q_i needs no local
                        levels[level].append(f"w{i}_{e} = {powers[i, e]}")
                        powers[i, e] = f"w{i}_{e}"
                w = powers.get((i, e))  # None: w_i_0 = 1, as variable i is absent
                parts.append(inner if not w else w if inner == "1" else f"-{w}" if inner == "-1" else f"{w}*{inner}")
            chains = [" + ".join(parts[j : j + _CHAIN]) for j in range(0, len(parts), _CHAIN)]
            value = chains[0] if len(chains) == 1 else f"sum(({', '.join(chains)}))"
            named[key] = value if value.isidentifier() else f"s{len(named)}"  # a bare power needs no local
            levels[level] += [f"{named[key]} = {value}"] if named[key] != value else []
        return named[key]

    values = [sub(n, tuple(row)) for row in rows]
    if solved < n:
        a, b = (sub(solved, tuple((mono[:solved], k) for mono, k in row)) for row in pair)
        levels[solved].append(f"xs = ((Fraction(-{a}, {b}),) if one else ()) if {b} else () if {a} else d{solved}")
    lines = [f"def nest({''.join(f'd{i}, ' for i in range(n))}one):"]
    for level, body in enumerate(levels):
        pad, i = "    " * (level + 1), level - 1
        if level:
            lines.append(f"{pad[4:]}for x{i} in {'xs' if i == solved else f'd{i}'}:")
            lines += [f"{pad}p{i} = x{i}.numerator; q{i} = x{i}.denominator"] if degrees[i] else []
        lines += [pad + line for line in body]
    point = ", ".join(f"{variables[i]!r}: x{i}" for i in sorted(range(n), key=lambda i: i == solved))
    test = " and ".join(f"not {value}" if eq else value for value, eq in zip(values, vanishing))
    found = f"yield {{{point}}}, [{', '.join(values)}]"
    return "\n".join([*lines, f"{pad}if {test}:", f"{pad}    {found}"] if test else [*lines, pad + found]) + "\n"
