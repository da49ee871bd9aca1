"""Seeded faults in the shared layers, each a row of one table,
test_layer_fault_is_caught, with the checks that must catch it: the
route-agreement sweep is a cross-check only if the routes do not share
their answer, and a fault in what no sweep row reads must fail a direct
test.  No route row reads the closed route: a fault in its range rule,
_two_term_floor, is left to the closed-formula tests, and the dagger fault
reaches it too, as the dagger sum's first two terms.  A fault that ends the
sweep, not a row, is a test of its own."""

import io
import json
from contextlib import contextmanager, redirect_stdout
from functools import partial

import pytest
import test_acceptance
import test_diagram_algebra
import test_kronecker
import test_lr
import test_sym_characters

import kroncoef
from kroncoef import Partition, cli, diagram_algebra, kronecker, lr, partitions, sym_characters
from kroncoef.cli import main, sweep_rows
from kroncoef.partitions import block_chain, dagger


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


def padded_without_own_padding(label, n):
    # partitions._padded with its partition-of-n branch dropped: a label that
    # is its own padding at n is padded again
    return partitions._pad(Partition(label).parts, partitions._n(n))


def test_padded_fault_ends_the_sweep(monkeypatch):
    # route_values reads the triple once and hands every route its padded
    # partitions of n, so every route row reads the partition-of-n branch:
    # without it the first row, [] [] [] n=1, refuses its own padded labels.
    # That is a ValueError, not a failed row (_row fails a row only on an
    # ArithmeticError), so the sweep ends there
    patches = [(module, "_padded", padded_without_own_padding) for module in (kronecker, cli)]
    with pytest.raises(ValueError, match=r"^\[1\] is not a partition for this n=1$"):
        flagged(monkeypatch, patches)


REAL_CHARS, REAL_REDUCED_KRON, REAL_SKEW = sym_characters._chars, kronecker._reduced_kron, lr._skew
REAL_RESTRICTED, REAL_TWO_TERM_FLOOR, REAL_JOIN = kronecker._restricted, kronecker._two_term_floor, diagram_algebra._join
REAL_FORM = sym_characters.SpechtModel._form.func


def chars(fault):
    """The patches that put fault in place of _chars for the oracle and the
    kernel alike."""
    return [(sym_characters, "_chars", fault), (kronecker, "_chars", fault)]


def chars_conjugates_swapped(lam):
    # chi^(3,1) and chi^(2,1,1) exchanged
    return REAL_CHARS({(3, 1): (2, 1, 1), (2, 1, 1): (3, 1)}.get(lam, lam))


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


NON_INTEGRAL = chars(chars_first_value_negated)


def reduced_kron_raised(lam, mu, nu):
    # gbar((1),(1),(2)) = 1 read as 2; every other order of the triple
    # recurses into this one
    return REAL_REDUCED_KRON(lam, mu, nu) + ((lam, mu, nu) == ((1,), (1,), (2,)))


def restricted_raised(outer, x, y, c):
    # the first entry of each restricted table of chi^(2,1) read one higher
    table = REAL_RESTRICTED(outer, x, y, c)
    if outer != (2, 1):
        return table
    (row, *rows), *blocks = table
    return (((row[0] + 1, *row[1:]), *rows), *blocks)


def chain_without_last(nu, n, r):
    # a chain of one entry kept whole: only the alternating tail goes
    chain = block_chain(nu, n, r)
    return chain[:-1] if len(chain) > 1 else chain


def dagger_first_row_raised(padded, i):
    result = dagger(padded, i)
    if i != 1:
        return result
    return Partition((result.parts[0] + 1,) + result.parts[1:])


def skew_raised(outer, inner):
    # c^(2,1)_{(1),(2)} = 1 read as 2, on a copy of the shared cached dict
    expansion = REAL_SKEW(outer, inner)
    if (outer, inner) == ((2, 1), (1,)):
        expansion = {**expansion, (2,): expansion[(2,)] + 1}
    return expansion


def form_raised(model):
    # <e_1, e_2> of (2,1) read one higher in the form of the basis, which
    # every form_of block of (2,1) is multiplied by
    form = REAL_FORM(model)
    if model.nu.parts != (2, 1):
        return form
    return ((form[0][0], form[0][1] + 1),) + form[1:]


def floor_lowered(lam, mu, nu):
    # kron_via_closed answers at n0 - 1 and names n0 - 1 in its refusals
    return REAL_TWO_TERM_FLOOR(lam, mu, nu) - 1


def sign_by_descents(seq):
    # the parity of the descents, not of the inversions: right up to length
    # 2, wrong on (2, 3, 1), (3, 1, 2) and (3, 2, 1)
    return (-1) ** sum(x > y for x, y in zip(seq, seq[1:]))


def join_loop_uncounted(x, y):
    # the first middle-only component of a join not counted as a loop
    t, outer = REAL_JOIN(x, y)
    return t - (t > 0), outer


SWEEP = ("kron_routes", "dim_identity")
CLOSED = test_kronecker.TestClosedFormulas()
SPECHT = test_sym_characters.TestSpechtModel()
MODULES = test_diagram_algebra.TestStandardModules()


@pytest.mark.parametrize(
    "patches, caught_by",
    [
        # 178 kron_routes and 2 dim_identity rows
        pytest.param(chars(chars_conjugates_swapped), SWEEP, id="_chars (3,1) and (2,1,1) swapped"),
        # 203 kron_routes and 17 dim_identity rows
        pytest.param(chars(chars_sign_flipped), SWEEP, id="_chars one sign flip"),
        # 761 kron_routes and 21 dim_identity rows, 218 of them by an
        # ArithmeticError
        pytest.param(NON_INTEGRAL, SWEEP, id="_chars non-integral sums"),
        # 10 kron_routes and 11 dim_identity rows
        pytest.param(
            [(kronecker, "_reduced_kron", reduced_kron_raised), (diagram_algebra, "_reduced_kron", reduced_kron_raised)],
            SWEEP,
            id="_reduced_kron + 1 on one triple",
        ),
        # 867 kron_routes and 21 dim_identity rows, 815 of them by an
        # ArithmeticError
        pytest.param([(kronecker, "_restricted", restricted_raised)], SWEEP, id="_restricted (2,1) first entry + 1"),
        # the routes read block_chain and dagger as kronecker's names
        # 219 kron_routes rows
        pytest.param([(kronecker, "block_chain", chain_without_last)], ("kron_routes",), id="block_chain drops its last entry"),
        # 234 kron_routes rows
        pytest.param([(kronecker, "dagger", dagger_first_row_raised)], ("kron_routes",), id="dagger(., 1) first row + 1"),
        # the closed route is the dagger sum cut after two terms, so the
        # dagger fault reaches it too, though no sweep row reads it
        pytest.param(
            [(kronecker, "dagger", dagger_first_row_raised)],
            (CLOSED.test_other_shapes_answered_from_n0, test_acceptance.test_acceptance_5_closed_formulas),
            id="dagger(., 1) first row + 1 in the closed route",
        ),
        # no sweep row reads the closed route: its range rule is left to the
        # closed-formula tests
        pytest.param(
            [(kronecker, "_two_term_floor", floor_lowered)],
            (
                CLOSED.test_out_of_range,
                CLOSED.test_other_shapes_answered_from_n0,
                test_acceptance.test_acceptance_5_closed_formulas,
            ),
            id="kron_via_closed n0 - 1",
        ),
        # the sweep reads no LR coefficient and flags no row: a direct test must fail
        pytest.param(
            [(lr, "_skew", skew_raised)],
            (test_lr.test_matches_lattice_word_count_up_to_8,),
            id="_skew + 1 on one coefficient",
        ),
        # the Specht form and the Gram matrix are each checked against a
        # pairing of the polytabloids, which reads no form_of
        pytest.param(
            [(sym_characters.SpechtModel, "_form", property(form_raised))],
            (
                SPECHT.test_form_of_is_the_pairing_reference,
                SPECHT.test_invariant_form_is_sigma_invariant,
                MODULES.test_gram_matches_the_product_reference,
            ),
            id="SpechtModel._form (2,1) off-diagonal + 1",
        ),
        # the one sign rule signs the polytabloids and the matrix columns
        # alike; the traces are checked against the Murnaghan-Nakayama
        # characters, which read no sign, and the model straightens a
        # column of (2,2,1) outside its span, an ArithmeticError
        pytest.param(
            [(sym_characters, "_sign", sign_by_descents)],
            (
                partial(SPECHT.test_traces_match_characters, (2, 2, 1)),
                SPECHT.test_form_of_is_the_pairing_reference,
                MODULES.test_gram_matches_the_product_reference,
            ),
            id="_sign by descents",
        ),
        # no sweep row composes diagrams: compose is checked against a
        # union-find on the whole picture, and the loops against products
        # counted by hand
        pytest.param(
            [(diagram_algebra, "_join", join_loop_uncounted)],
            (
                test_diagram_algebra.TestCompose().test_degree_two_products,
                test_diagram_algebra.TestCompose().test_matches_the_union_find_oracle,
                MODULES.test_idempotent_action_on_three_dim_module,
            ),
            id="_join one loop uncounted",
        ),
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
