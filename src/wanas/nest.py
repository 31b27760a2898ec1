"""Polynomials on a product grid of rationals, compiled into one generator of nested loops."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .poly import Poly, _integer_rows

_CHAIN = 32  # terms per `a + b + ...` chain; longer rows sum a flat tuple of chains


def grid_nest(
    polys: Sequence[Poly], variables: Sequence[str], vanishing: Sequence[bool], solved: tuple[int, Poly, Poly] | None = None,
    systems: Sequence[tuple[Sequence[tuple[int, int]], Sequence[tuple[Sequence[int], Sequence[int]]]]] = (),
) -> Callable[..., Iterator[tuple]]:
    """``polys`` on a product grid, compiled into one generator ``nest(d_0,
    ..., d_n-1, one)`` of nested loops, variable i of ``variables`` over the
    sorted Fractions d_i.  It yields (point, values) for each point whose
    leading values vanish as ``vanishing`` says (True: the value is 0), the
    values being integer numerators as ``IntegerEvaluator(polys)`` gives
    them (it runs this nest on one value per variable) when ``polys`` hold
    the equation that ``solved`` solves.  ``solved`` = (i,
    a, b), a and b free of x_i and the variables after it, runs x_i (listed
    last in a point) over the roots of a + b*x_i = 0: -a/b where b != 0
    (only when ``one``), all of d_i where a = b = 0, none otherwise.

    Each of ``systems``, (pairs, cases) of row indices, is decided at each
    point: the (constant, slope) pairs of constant + slope*c = 0, the cases
    as (rows that vanish, rows that do not).  The nest then yields (point,
    decisions, values): per system ``solve_affine``'s outcome, the first
    pair (a, b) of b != 0 (c = -a/b for "one") and the index of the first
    case that holds, else None; the values only if some case holds, and a
    row that no test reads (admission, pair or case) is formed only then."""
    s, pair = (solved[0], _integer_rows(solved[1:], variables)[1]) if solved else (len(variables), [])
    rows = _integer_rows(polys, variables)[1]
    degrees = [max((mono[i] for row in rows + pair for mono, _ in row), default=0) for i in range(len(variables))]
    namespace: dict = {"Fraction": Fraction}
    exec(compile(_nest_source(degrees, rows, vanishing, variables, s, pair, systems), "<nest>", "exec"), namespace)
    return namespace["nest"]


def _nest_source(degrees, rows, vanishing, variables, solved, pair, systems) -> str:
    """Python source of ``grid_nest``'s generator, by the multivariate Horner
    scheme (J. M. Peña & T. Sauer, SIAM J. Numer. Anal. 37(4), 2000).  In the
    loop of variable L - 1, a row's terms of equal exponents from variable L on
    form a sub-row sum k * prod_(i < L) w_i_(e_i), w_i_e = p_i^e * q_i^(d_i - e),
    named once per term set: sum_e w_(L-1)_e times a sub-row of the loop
    before.  The solved variable's (a, b) are two more in its loop, and
    ``systems`` are decided after the admission test (``_decisions``), the
    last sub-rows of the rows no test reads formed where some case holds."""
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

    read = set(range(len(vanishing) if systems else len(rows)))
    for pairs, cases in systems:
        read.update(*pairs, *(part for case in cases for part in case))
    values = [sub(n, tuple(row)) if j in read else "" for j, row in enumerate(rows)]
    mark = len(levels[n])
    if any(cases for _, cases in systems):  # the rows only a point in some case yields, none where no system has a case
        values = [value or sub(n, tuple(row)) for value, row in zip(values, rows)]
    formed = levels[n][mark:]
    del levels[n][mark:]
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
    found = _decisions(values, systems, point, formed) if systems else [f"yield {{{point}}}, [{', '.join(values)}]"]
    head, pad = ([f"{pad}if {test}:"], pad + "    ") if test else ([], pad)
    return "\n".join([*lines, *head, *(pad + line for line in found)]) + "\n"


def _decisions(values: list[str], systems, point: str, formed: list[str]) -> list[str]:
    """The statements that decide ``systems`` on the named ``values`` of a
    point, then yield it, with the ``formed`` statements and the values only
    where some case holds.  A pair of two zero rows never changes the
    outcome and is left out.  Where b != 0 every pair needs constant*b ==
    a*slope (a flat pair, slope 0: constant 0); where b = 0 every slope is 0."""
    lines, decisions = [], []
    for t, (pairs, cases) in enumerate(systems):
        live = [(values[c], values[s]) for c, s in pairs if values[c] != "0" or values[s] != "0"]
        first = " else ".join([*(f"({c}, {s}) if {s}" for c, s in live if s != "0"), "(0, 0)"])
        chain = " and ".join(f"{c}*b{t} == a{t}*{s}" if s != "0" else f"not {c}" for c, s in live) or "True"
        nonzero = " or ".join(c for c, _ in live if c != "0") or "0"
        lines += [f"a{t}, b{t} = {first}", f"o{t} = 'one' if b{t} and {chain} else 'none' if b{t} or {nonzero} else 'any'"]
        if cases:
            conditions = ([f"not ({' or '.join(values[r] for r in eq)})"] * bool(eq) + [values[r] for r in neq] for eq, neq in cases)
            holds = (" and ".join(parts) or "True" for parts in conditions)
            lines.append(f"k{t} = {' else '.join(f'{k} if {test}' for k, test in enumerate(holds))} else None")
        decisions.append(f"(o{t}, a{t}, b{t}, {f'k{t}' if cases else None})")
    matched = " or ".join(f"k{t} is not None" for t, (_, cases) in enumerate(systems) if cases)
    found = f"yield {{{point}}}, ({', '.join(decisions)},), "
    in_case = [*formed, f"{found}[{', '.join(values)}]"]
    branch = [f"if {matched}:", *(f"    {line}" for line in in_case), "else:", f"    {found}None"]
    return [*lines, *(branch if matched else [found + "None"])]


def _literal(k: int) -> str:  # compile() keeps the int/str digit limit; hexadecimal has none
    try:
        return str(k)
    except ValueError:
        return hex(k)


def _power(i: int, e: int, d: int) -> str:
    """The source of p_i^e * q_i^(d - e), d the largest degree of variable i."""
    p = f"p{i}" if e == 1 else f"p{i}**{e}"
    q = f"q{i}" if d - e == 1 else f"q{i}**{d - e}"
    return p if e == d else q if e == 0 else f"{p} * {q}"
