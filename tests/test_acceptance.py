"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact integer equality; there are no tolerances anywhere.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.
"""

import json
import time
from fractions import Fraction

from conftest import default_sweep
from kroncoef.diagram_algebra import (
    AlgebraElement,
    SetPartitionDiagram,
    bell,
    compose,
    dim_standard,
    restriction_table,
    standard_module,
)
from kroncoef.kronecker import (
    FormulaRangeError,
    kron_via_blocks,
    kron_via_closed,
    kron_via_dagger,
    reduced_kron,
    reduced_kron_via_lr,
    stability_bound,
)
from kroncoef.partitions import Partition, pad, partitions_of, partitions_up_to
from kroncoef.sym_characters import CharacterTable, kron_oracle
from oracles import enumerate_diagrams

P = Partition
D = SetPartitionDiagram.parse


def _report(num: int, name: str, ok: bool, started: float, detail: str = "", counts: dict | None = None) -> None:
    """Print the line ACCEPTANCE num name: PASS|FAIL [seconds] (detail),
    ended by one JSON object with the criterion, ok, the seconds and the
    counts that detail gives in prose, and fail the test unless ok."""
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    record = {"criterion": num, "name": name, "ok": ok, "seconds": round(elapsed, 3), "counts": counts or {}}
    print(f"ACCEPTANCE {num} {name}: {status} [{elapsed:.2f}s]{suffix} {json.dumps(record)}")
    assert ok, f"acceptance criterion {num} ({name}) failed {suffix}"


# the tensor square of the Specht module S(n-1,1): [n], [n-1,1], [n-2,2] and
# [n-2,1,1], each once, from n = 4 on, with the shorter lists at n = 2 and 3
TENSOR_SQUARES = {
    2: [[2]],
    3: [[3], [2, 1], [1, 1, 1]],
    **{n: [[n], [n - 1, 1], [n - 2, 2], [n - 2, 1, 1]] for n in range(4, 9)},
}


def test_acceptance_1_tensor_square_stabilization():
    started = time.perf_counter()
    bad = []
    for n, shapes in TENSOR_SQUARES.items():
        hook = P([n - 1, 1])
        got = {nu: g for nu in partitions_of(n) if (g := kron_oracle(hook, hook, nu))}
        if got != dict.fromkeys(map(P, shapes), 1):
            bad.append((n, got))
    _report(1, "tensor-square stabilization n=2..8", not bad, started, f"first bad {bad[0]}" if bad else "")


def test_acceptance_2_reduced_coefficients_of_two_boxes():
    started = time.perf_counter()
    expected_one = {P(), P([1]), P([1, 1]), P([2])}
    ok = True
    for w in range(5):
        for nu in partitions_of(w):
            want = 1 if nu in expected_one else 0
            if reduced_kron(P([1]), P([1]), nu) != want:
                ok = False
            if reduced_kron_via_lr(P([1]), P([1]), nu) != want:
                ok = False
    _report(2, "reduced coefficients of the box pair", ok, started)


def test_acceptance_3_nonsemisimple_degree_two():
    started = time.perf_counter()
    one_one = P([1, 1])
    values = {}
    for name, route in (
        ("blocks", kron_via_blocks),
        ("dagger", kron_via_dagger),
    ):
        values[name, "sym"] = route(one_one, one_one, P([2]), 2)
        values[name, "alt"] = route(one_one, one_one, one_one, 2)
    values["oracle", "sym"] = kron_oracle(one_one, one_one, P([2]))
    values["oracle", "alt"] = kron_oracle(one_one, one_one, one_one)
    ok = all(values[k, "sym"] == 1 for k in ("blocks", "dagger", "oracle"))
    ok = ok and all(values[k, "alt"] == 0 for k in ("blocks", "dagger", "oracle"))
    _report(3, "degree-two non-semisimple values at n=2", ok, started)


def test_acceptance_4_route_agreement_sweep():
    started = time.perf_counter()
    # the route rows of the default sweep; its dimension rows are criterion 7
    rows = [row for row in default_sweep() if row[0] == "kron_routes"]
    bad = [case for _check, case, _values, ok in rows if not ok]
    counts = {"cases": len(rows), "gbar": sum("gbar=" in values for _check, _case, values, _ok in rows)}
    _report(
        4,
        "route agreement sweep",
        not bad,
        started,
        f"{counts['cases']} padded cases, {counts['gbar']} of them also against gbar"
        + (f", first bad {bad[0]}" if bad else ""),
        counts,
    )


def test_acceptance_line_ends_in_one_json_object(capsys):
    test_acceptance_4_route_agreement_sweep()
    line = capsys.readouterr().out
    assert line.startswith("ACCEPTANCE 4 route agreement sweep: PASS [") and line.count("\n") == 1
    record = json.loads(line[line.index('{"criterion"') :])
    assert record.pop("seconds") >= 0
    assert record == {
        "criterion": 4,
        "name": "route agreement sweep",
        "ok": True,
        "counts": {"cases": 20673, "gbar": 17499},
    }


def test_acceptance_5_closed_formulas():
    # from the padding and shape floor up: below min(stability bound,
    # |lam| + |mu| + nu_2 - 1) a FormulaRangeError, from there the oracle
    started = time.perf_counter()
    small = list(partitions_up_to(4))
    bad = []
    admitted = refused = 0
    for lam in small:
        for mu in small:
            pad_floor = max(lam.size + lam.row(1), mu.size + mu.row(1), 1)
            for k in range(7):
                for name, nu, shape_floor in (("two-row", P([k] if k else []), 2 * k), ("hook", P([1] * k), k + 1)):
                    n0 = min(stability_bound(lam, mu, nu), lam.size + mu.size + nu.row(2) - 1)
                    floor = max(pad_floor, shape_floor)
                    for n in range(floor, max(floor, lam.size + mu.size + k + 1) + 3):
                        if n < n0:
                            refused += 1
                            try:
                                kron_via_closed(lam, mu, nu, n)
                                bad.append((name, lam, mu, k, n, "admitted below the range"))
                            except FormulaRangeError as exc:
                                if f"needs n >= {n0}," not in str(exc):
                                    bad.append((name, lam, mu, k, n, str(exc)))
                            continue
                        admitted += 1
                        want = kron_oracle(pad(lam, n), pad(mu, n), pad(nu, n))
                        if kron_via_closed(lam, mu, nu, n) != want:
                            bad.append((name, lam, mu, k, n))
    _report(
        5,
        "two-row and hook closed formulas",
        not bad,
        started,
        f"{admitted} evaluations equal the oracle, {refused} below the range refused"
        + (f", first bad {bad[0]}" if bad else ""),
        {"admitted": admitted, "refused": refused},
    )


def test_acceptance_6_degree_two_worked_example():
    started = time.perf_counter()
    delta = Fraction(7)
    ok = len(enumerate_diagrams(2, 2)) == 15

    dims = {nu: standard_module(2, nu, delta).dim for nu in partitions_up_to(2)}
    ok = ok and [dims[P([2])], dims[P([1, 1])], dims[P([1])], dims[P()]] == [1, 1, 3, 2]

    ok = ok and compose(D("{1,2'}{2,1'}"), D("{1,1',2'}{2}")) == (0, D("{1}{2,1',2'}"))
    ok = ok and compose(D("{1,2,1'}{2'}"), D("{1,2'}{2}{1'}")) == (1, D("{1,2,2'}{1'}"))
    prod = AlgebraElement.from_diagram(D("{1,2,1'}{2'}"), delta) * AlgebraElement.from_diagram(
        D("{1,2'}{2}{1'}"), delta
    )
    ok = ok and prod.terms == {D("{1,2,2'}{1'}"): delta}

    one, empty = P([1]), P()
    ok = ok and restriction_table(P([2]), 1, 1) == {(one, one): 1}
    ok = ok and restriction_table(P([1, 1]), 1, 1) == {(one, one): 1}
    ok = ok and restriction_table(P([1]), 1, 1) == {
        (one, one): 1,
        (empty, one): 1,
        (one, empty): 1,
    }
    ok = ok and restriction_table(P(), 1, 1) == {(one, one): 1, (empty, empty): 1}
    _report(6, "degree-two diagram algebra worked example", ok, started)


def test_acceptance_7_dimension_certificate():
    started = time.perf_counter()
    # the dimension rows of the default sweep
    rows = [row for row in default_sweep() if row[0] == "dim_identity"]
    bad = [case for _check, case, _values, ok in rows if not ok]
    total = len(rows)
    wedderburn_ok = all(
        sum(dim_standard(r, nu) ** 2 for nu in partitions_up_to(r)) == bell(2 * r)
        for r in range(1, 5)
    )
    ok = not bad and wedderburn_ok and bell(8) == 4140
    _report(
        7,
        "restriction dimension certificate",
        ok,
        started,
        f"{total} identities up to degree 6",
        {"identities": total},
    )


def test_acceptance_8_oracle_self_consistency():
    started = time.perf_counter()
    ok = True
    for n in range(1, 11):
        try:
            CharacterTable(n).check_orthogonality()
        except ArithmeticError:
            ok = False
    from itertools import permutations as _perms

    for n in range(1, 9):
        ps = partitions_of(n)
        for lam in ps:
            for mu in ps:
                for nu in ps:
                    if not (lam <= mu <= nu):
                        continue
                    ref = kron_oracle(lam, mu, nu)
                    for a, b, c in _perms((lam, mu, nu)):
                        if kron_oracle(a, b, c) != ref:
                            ok = False
    for n in range(1, 9):
        sign = P([1] * n)
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                want = 1 if nu == lam.conjugate() else 0
                if kron_oracle(lam, sign, nu) != want:
                    ok = False
    _report(8, "oracle self-consistency", ok, started)
