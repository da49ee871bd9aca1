"""Seeded faults in a shared layer, and the checks that must catch them:
the route-agreement sweep is a cross-check only if the routes do not share
their answer, and a fault in what no sweep row reads must fail a direct
test.  No route row reads the closed route: a fault in its range rule is
left to the closed-formula tests, and the dagger fault must also reach it,
as the dagger sum's first two terms, and make it differ from the oracle on
some in-range two-row or hook case."""

import inspect
import io
import json
from contextlib import contextmanager, redirect_stdout
from functools import partial
from itertools import product

import pytest
import test_acceptance
import test_diagram_algebra
import test_kronecker
import test_lr
import test_sym_characters

import kroncoef
from kroncoef import Partition, diagram_algebra, kronecker, lr, sym_characters
from kroncoef.cli import main, sweep_rows
from kroncoef.partitions import block_chain, dagger, partitions_up_to


@contextmanager
def seeded(monkeypatch, patches):
    """Every (module, name, value) of patches set, caches cleared around it."""
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    kroncoef.clear_caches()
    try:
        yield
    finally:
        monkeypatch.undo()
        kroncoef.clear_caches()


def flagged(monkeypatch, patches) -> dict[str, int]:
    """The failed rows of each check of the 3/2/4 sweep under patches."""
    rows = dict.fromkeys(("kron_routes", "dim_identity"), 0)
    with seeded(monkeypatch, patches):
        for check, _case, _values, ok in sweep_rows(3, 2, 4):
            rows[check] += not ok
    return rows


def test_unpatched_sweep_flags_nothing(monkeypatch):
    assert not any(flagged(monkeypatch, []).values())


def test_conjugate_character_swap_is_flagged(monkeypatch):
    # chi^(3,1) and chi^(2,1,1) exchanged, for the oracle and the kernel alike
    real = sym_characters._chars
    swap = {(3, 1): (2, 1, 1), (2, 1, 1): (3, 1)}

    def swapped(lam):
        return real(swap.get(lam, lam))

    rows = flagged(monkeypatch, [(sym_characters, "_chars", swapped), (kronecker, "_chars", swapped)])
    assert rows["kron_routes"], rows


def chain_without_last(nu, n, r):
    # a chain of one entry kept whole: only the alternating tail goes
    chain = block_chain(nu, n, r)
    return chain[:-1] if len(chain) > 1 else chain


def dagger_first_row_raised(padded, i):
    result = dagger(padded, i)
    if i != 1:
        return result
    return Partition((result.parts[0] + 1,) + result.parts[1:])


@pytest.mark.parametrize(
    "name, fault",
    [("block_chain", chain_without_last), ("dagger", dagger_first_row_raised)],
    ids=["block_chain drops its last entry", "dagger(., 1) first row + 1"],
)
def test_route_fault_is_flagged(monkeypatch, name, fault):
    # the routes read block_chain and dagger as kronecker's names; the sweep
    # flags 219 and 234 kron_routes rows
    rows = flagged(monkeypatch, [(kronecker, name, fault)])
    assert rows["kron_routes"], rows


def test_dagger_fault_reaches_the_closed_route(monkeypatch):
    # the closed route is the dagger sum cut after two terms, so it reads
    # kronecker.dagger too: 96 of its 1,128 in-range calls with |lam|, |mu|
    # <= 3 and n <= stability bound + 2 differ from the oracle
    labels = [p.parts for p in partitions_up_to(3)]
    differ = 0
    with seeded(monkeypatch, [(kronecker, "dagger", dagger_first_row_raised)]):
        for lam, mu in product(labels, repeat=2):
            top = sum(lam) + sum(mu)
            for nu in {(k,) for k in range(1, top + 1)} | {(1,) * k for k in range(top + 1)}:
                for n in kronecker.valid_n_range(lam, mu, nu, 2):
                    try:
                        closed = kronecker.kron_via_closed(lam, mu, nu, n)
                    except kronecker.FormulaRangeError:
                        continue
                    differ += closed != kronecker.kron_via_oracle(lam, mu, nu, n)
    assert differ


REAL_CHARS, REAL_REDUCED_KRON, REAL_SKEW = sym_characters._chars, kronecker._reduced_kron, lr._skew
REAL_FORM = sym_characters.SpechtModel._form.func


def chars_sign_flipped(lam):
    # chi^(2) on the class (2) negated: chi^(2) reads as chi^(1,1)
    values = REAL_CHARS(lam)
    return (values[0], -values[1]) if lam == (2,) else values


def chars_first_value_negated(lam):
    # the first nonzero value of chi^(2,1) negated: class sums that read it
    # are no longer integral and raise ArithmeticError
    values = REAL_CHARS(lam)
    if lam != (2, 1):
        return values
    i = next(i for i, value in enumerate(values) if value)
    return values[:i] + (-values[i],) + values[i + 1 :]


NON_INTEGRAL = [(sym_characters, "_chars", chars_first_value_negated), (kronecker, "_chars", chars_first_value_negated)]


def reduced_kron_raised(lam, mu, nu):
    # gbar((1),(1),(2)) = 1 read as 2; every other order of the triple
    # recurses into this one
    return REAL_REDUCED_KRON(lam, mu, nu) + ((lam, mu, nu) == ((1,), (1,), (2,)))


def form_raised(model):
    # <e_1, e_2> of (2,1) read one higher in the form of the basis, which
    # every form_of block of (2,1) is multiplied by
    form = REAL_FORM(model)
    if model.nu.parts != (2, 1):
        return form
    return ((form[0][0], form[0][1] + 1),) + form[1:]


def closed_range_lowered():
    """The patches that put kron_via_closed, compiled from its own source
    with n0 one lower, in kronecker and in the test modules that import it
    by name: it answers at n0 - 1 and names n0 - 1 in its refusals."""
    source = inspect.getsource(kronecker.kron_via_closed)
    lowered = source.replace("    n0 = min(", "    n0 = -1 + min(")
    assert lowered != source
    namespace = {}
    exec(lowered, vars(kronecker), namespace)
    fault = namespace["kron_via_closed"]
    return [(module, "kron_via_closed", fault) for module in (kronecker, test_kronecker, test_acceptance)]


def sign_by_descents(seq):
    # the parity of the descents, not of the inversions: right up to length
    # 2, wrong on (2, 3, 1), (3, 1, 2) and (3, 2, 1)
    return (-1) ** sum(x > y for x, y in zip(seq, seq[1:]))


def skew_raised(outer, inner):
    # c^(2,1)_{(1),(2)} = 1 read as 2, on a copy of the shared cached dict
    expansion = REAL_SKEW(outer, inner)
    if (outer, inner) == ((2, 1), (1,)):
        expansion = {**expansion, (2,): expansion[(2,)] + 1}
    return expansion


@pytest.mark.parametrize(
    "patches, caught_by",
    [
        # 203 kron_routes and 17 dim_identity rows
        (
            [(sym_characters, "_chars", chars_sign_flipped), (kronecker, "_chars", chars_sign_flipped)],
            ("kron_routes", "dim_identity"),
        ),
        # 761 kron_routes and 21 dim_identity rows, 218 of them by an
        # ArithmeticError
        (NON_INTEGRAL, ("kron_routes", "dim_identity")),
        # 10 kron_routes and 11 dim_identity rows
        (
            [(kronecker, "_reduced_kron", reduced_kron_raised), (diagram_algebra, "_reduced_kron", reduced_kron_raised)],
            ("kron_routes", "dim_identity"),
        ),
        # the sweep reads no LR coefficient and flags no row: a direct test must fail
        ([(lr, "_skew", skew_raised)], (test_lr.test_matches_lattice_word_count_up_to_8,)),
        # the Specht form and the Gram matrix are each checked against a
        # pairing of the polytabloids, which reads no form_of
        (
            [(sym_characters.SpechtModel, "_form", property(form_raised))],
            (
                test_sym_characters.TestSpechtModel().test_form_of_is_the_pairing_reference,
                test_sym_characters.TestSpechtModel().test_invariant_form_is_sigma_invariant,
                test_diagram_algebra.TestStandardModules().test_gram_matches_the_product_reference,
            ),
        ),
        # no sweep row reads the closed route: its range rule is left to the
        # closed-formula tests
        (
            closed_range_lowered(),
            (
                test_kronecker.TestClosedFormulas().test_out_of_range,
                test_kronecker.TestClosedFormulas().test_other_shapes_answered_from_n0,
                test_acceptance.test_acceptance_5_closed_formulas,
            ),
        ),
        # the one sign rule signs the polytabloids and the matrix columns
        # alike; the traces are checked against the Murnaghan-Nakayama
        # characters, which read no sign, and the model straightens a
        # column of (2,2,1) outside its span, an ArithmeticError
        (
            [(sym_characters, "_sign", sign_by_descents)],
            (
                partial(test_sym_characters.TestSpechtModel().test_traces_match_characters, (2, 2, 1)),
                test_sym_characters.TestSpechtModel().test_form_of_is_the_pairing_reference,
                test_diagram_algebra.TestStandardModules().test_gram_matches_the_product_reference,
            ),
        ),
    ],
    ids=[
        "_chars one sign flip",
        "_chars non-integral sums",
        "_reduced_kron + 1 on one triple",
        "_skew + 1 on one coefficient",
        "SpechtModel._form (2,1) off-diagonal + 1",
        "kron_via_closed n0 - 1",
        "_sign by descents",
    ],
)
def test_layer_fault_is_caught(monkeypatch, patches, caught_by):
    """Each fault names what must catch it: the sweep checks that must flag
    rows, or the direct tests, run as functions, that must each fail, by an
    assertion, by a pytest.raises that saw nothing raised, or by an
    ArithmeticError of the library's own invariants.  What a test prints,
    such as an acceptance FAIL line, is dropped."""
    if callable(caught_by[0]):
        for test in caught_by:
            with seeded(monkeypatch, patches), redirect_stdout(io.StringIO()):
                with pytest.raises((AssertionError, pytest.fail.Exception, ArithmeticError)):
                    test()
    else:
        rows = flagged(monkeypatch, patches)
        assert all(rows[check] for check in caught_by), rows


def test_non_integral_sum_fails_its_row_and_the_sweep_goes_on(monkeypatch, capsys):
    # every row is printed, an ArithmeticError as a failed row with its
    # message, and the summary and the error line follow
    with seeded(monkeypatch, NON_INTEGRAL):
        code = main(["sweep", "--max-weight", "3", "--extra-n", "2", "--dim-max", "4"])
    out, err = capsys.readouterr()
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    summary, last = err.splitlines()
    summary = json.loads(summary)
    assert code == 1 and last == f"error: {summary['failed']} sweep mismatches"
    assert len(rows) == sum(summary["rows"].values())
    assert summary["failed"] == [ok for *_, ok in rows].count("False")
    errors = [values for _check, _case, values, _ok in rows if values.startswith("error=")]
    assert errors and all("non-integral" in values for values in errors)
    assert ["kron_routes", "[] [1] [] n=3", "error=non-integral character sum for ([3],[2,1],[3])", "False"] in rows
