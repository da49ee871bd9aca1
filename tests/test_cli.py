import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter

import pytest

from conftest import default_sweep
from kroncoef import cli, kronecker
from kroncoef.cli import main
from kroncoef.partitions import Partition

ROOT = os.path.join(os.path.dirname(__file__), "..")
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv) -> str:
    """The one-line error of a command that must exit nonzero, with nothing
    printed on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert capsys.readouterr().out == ""
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("error:") and "\n" not in message
    return message


def kroncoef_process(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "kroncoef.cli", *argv], capture_output=True, text=True, env=ENV, timeout=120
    )


class TestKron:
    def test_padded_inputs(self, capsys):
        code, out, _ = run(capsys, "kron", "[1,1]", "[1,1]", "[2]", "--n", "2")
        assert code == 0 and out == "1\n"

    def test_reduced_inputs_with_route(self, capsys):
        code, out, _ = run(capsys, "kron", "[1]", "[1]", "[1,1]", "--n", "4", "--route", "oracle")
        assert code == 0 and out == "1\n"

    def test_empty_partitions(self, capsys):
        code, out, _ = run(capsys, "kron", "[]", "[]", "[]", "--n", "1")
        assert code == 0 and out == "1\n"

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "kron", "[1,1]", "[1,1]", "[2]", "--n", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == 1
        assert obj["route"] == "all"
        assert obj["lambda"] == "[1,1]"
        assert "ms" in obj

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, "kron", "[1]", "[1]", "[2]", "--n", "4", "--format", "tsv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0].split("\t") == ["lambda", "mu", "nu", "n", "route", "value"]
        assert lines[1].split("\t")[-1] == "1"

    def test_route_disagreement(self, capsys, monkeypatch):
        real = kronecker.kron_via_dagger
        monkeypatch.setattr(kronecker, "kron_via_dagger", lambda *args: real(*args) + 1)
        code, out, err = run(capsys, "kron", "[1]", "[1]", "[2]", "--n", "4")
        assert code == 1 and out == ""
        assert err == "error: route disagreement: oracle=1 blocks=1 dagger=2 gbar=1\n"

    def test_all_leaves_out_the_closed_route(self, capsys, monkeypatch):
        # no route row reads kron_via_closed: with it raising, --route all
        # and route_values still answer
        def closed(*args):
            raise AssertionError("kron_via_closed called")

        monkeypatch.setattr(kronecker, "kron_via_closed", closed)
        code, out, _ = run(capsys, "kron", "[1]", "[1]", "[2]", "--n", "4")
        assert code == 0 and out == "1\n"
        values = cli.route_values(*map(Partition, ([1], [1], [2])), 4)
        assert values == {"oracle": 1, "blocks": 1, "dagger": 1, "gbar": 1}

    def test_route_choices(self, capsys):
        # all runs the routes of a route row; closed is run by its name alone
        message = refused(capsys, "kron", "[1]", "[1]", "[2]", "--n", "4", "--route", "bogus")
        assert message.replace("'", "").endswith("(choose from all, oracle, blocks, dagger, closed)")

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "kron", "[2,1]", "[2]", "[1,1]", "--n", "7")
        _, out2, _ = run(capsys, "kron", "[2,1]", "[2]", "[1,1]", "--n", "7")
        assert out1 == out2

    def test_bad_partition_syntax(self, capsys):
        refused(capsys, "kron", "2,1", "[1]", "[1]", "--n", "4")

    def test_bad_part_is_named(self, capsys):
        # [1_0] is not read as [10]
        message = refused(capsys, "kron", "[1_0]", "[]", "[1_0]", "--n", "20")
        assert message == "error: bad part '1_0' in '[1_0]'"
        assert refused(capsys, "lr", "[1]", "[1]", "[2,1]", "--eta", "[x]") == "error: bad part 'x' in '[x]'"

    def test_invalid_padding(self, capsys):
        refused(capsys, "kron", "[2,1]", "[1]", "[1]", "--n", "4")

    def test_closed_route(self, capsys):
        code, out, _ = run(capsys, "kron", "[1]", "[1]", "[2]", "--n", "4", "--route", "closed")
        assert code == 0 and out == "1\n"
        code, out, _ = run(capsys, "kron", "[1]", "[1]", "[1,1]", "--n", "4", "--route", "closed")
        assert code == 0 and out == "1\n"

    def test_closed_route_out_of_range_errors(self, capsys):
        # a padded third factor of any shape is answered from n0 on, here
        # n0 = min(8, 3 + 3 + 1 - 1) = 6, and refused below it
        message = refused(capsys, "kron", "[2,1]", "[2,1]", "[2,1]", "--n", "5", "--route", "closed")
        assert message == "error: the two-term dagger sum needs n >= 6, got n=5 (--route dagger sums every term)"
        code, out, _ = run(capsys, "kron", "[2,1]", "[2,1]", "[2,1]", "--n", "9", "--route", "closed")
        assert code == 0 and out == "9\n"

    def test_closed_route_reads_the_labels_like_all(self, capsys):
        # every route reads lam, mu and nu in that order and names the first
        # label with no padding at n
        message = refused(capsys, "kron", "[4]", "[1]", "[3]", "--n", "5")
        assert message == "error: [4] is not a partition for this n=5"
        assert refused(capsys, "kron", "[4]", "[1]", "[3]", "--n", "5", "--route", "closed") == message

    def test_dagger_route_where_no_closed_formula_applies(self, capsys):
        code, out, _ = run(capsys, "kron", "[2,1]", "[2,1]", "[2,1]", "--n", "5", "--route", "dagger")
        assert code == 0 and out == "1\n"

    def test_oracle_refused_past_its_class_cap(self, capsys):
        start = time.perf_counter()
        for route in ("all", "oracle"):
            message = refused(capsys, "kron", "[2,1]", "[2,1]", "[3,1]", "--n", "1000000", "--route", route)
            assert "oracle route" in message and "--route dagger" in message
        assert "oracle route" in refused(capsys, "kron", "[2,1]", "[2,1]", "[3,1]", "--n", "46")
        assert time.perf_counter() - start < 1.0
        code, out, _ = run(capsys, "kron", "[2,1]", "[2,1]", "[3,1]", "--n", "1000000", "--route", "dagger")
        assert code == 0 and out == "9\n"

    def test_delta_refused(self, capsys):
        # only diagram compose reads --delta
        message = refused(capsys, "kron", "[1]", "[1]", "[2]", "--n", "4", "--delta", "3")
        assert message == "error: unrecognized arguments: --delta 3"


class TestRkron:
    def test_examples(self, capsys):
        for nu in ("[]", "[1]", "[1,1]", "[2]"):
            code, out, _ = run(capsys, "rkron", "[1]", "[1]", nu)
            assert code == 0 and out == "1\n"

    def test_single_route(self, capsys):
        code, out, _ = run(capsys, "rkron", "[2,1]", "[2,1]", "[2,1]", "--route", "stable")
        assert code == 0 and out == "9\n"

    def test_stable_route_refused_past_the_oracle_cap(self, capsys):
        # the stable route would run the oracle at n = 60, p(60) = 966,467
        start = time.perf_counter()
        for route in ("both", "stable"):
            message = refused(capsys, "rkron", "[20]", "[20]", "[20]", "--route", route)
            assert "n = 60" in message and "--route lr" in message
        assert time.perf_counter() - start < 1.0
        code, out, _ = run(capsys, "rkron", "[20]", "[20]", "[20]", "--route", "lr")
        assert code == 0 and out == "11\n"
        # an oversize third factor is 0 on both routes without the oracle
        code, out, _ = run(capsys, "rkron", "[20]", "[20]", "[41]")
        assert code == 0 and out == "0\n"


class TestLr:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "lr", "[2,1]", "[2,1]", "[3,2,1]")
        assert code == 0 and out == "2\n"

    def test_three_factor(self, capsys):
        code, out, _ = run(capsys, "lr", "[1]", "[1]", "[2,1]", "--eta", "[1]")
        assert code == 0 and out == "2\n"


class TestChainDagger:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "[1]", "--n", "2", "--r", "2")
        assert code == 0 and out == "[1] -> [2]\n"

    def test_chain_tsv(self, capsys):
        code, out, _ = run(capsys, "chain", "[1]", "--n", "2", "--r", "2", "--format", "tsv")
        lines = out.strip().split("\n")
        assert lines[0] == "index\tpartition\tsize"
        assert lines[1] == "0\t[1]\t1"

    def test_chain_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "chain", "[1]", "--n", "2", "--r", "2")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"command": "chain", "index": "0", "partition": "[1]", "size": "1"},
            {"command": "chain", "index": "1", "partition": "[2]", "size": "2"},
        ]

    def test_dagger(self, capsys):
        code, out, _ = run(capsys, "dagger", "[10,10]", "--n", "30", "--i", "8")
        assert code == 0 and out == "[11,11,11,1,1,1,1,1]\n"

    @pytest.mark.parametrize(
        "argv, tsv, obj",
        [
            (
                ["lr", "[2,1]", "[2,1]", "[3,2,1]"],
                "lambda\tmu\tnu\troute\tvalue\n[2,1]\t[2,1]\t[3,2,1]\tplacement\t2\n",
                {"command": "lr", "lambda": "[2,1]", "mu": "[2,1]", "nu": "[3,2,1]", "route": "placement", "value": 2},
            ),
            (
                ["lr", "[1]", "[1]", "[2,1]", "--eta", "[1]"],
                "lambda\tmu\tnu\teta\troute\tvalue\n[1]\t[1]\t[2,1]\t[1]\tplacement\t2\n",
                {"command": "lr", "lambda": "[1]", "mu": "[1]", "nu": "[2,1]", "eta": "[1]", "route": "placement", "value": 2},
            ),
            (
                ["dagger", "[10,10]", "--n", "30", "--i", "8"],
                "nu\tn\ti\troute\tvalue\n[10,10]\t30\t8\tdagger\t[11,11,11,1,1,1,1,1]\n",
                {"command": "dagger", "nu": "[10,10]", "n": 30, "i": 8, "route": "dagger", "value": "[11,11,11,1,1,1,1,1]"},
            ),
        ],
    )
    def test_lr_and_dagger_value_formats(self, capsys, argv, tsv, obj):
        # the bytes of each format, json up to its ms timing, which comes last
        code, out, _ = run(capsys, *argv, "--format", "tsv")
        assert code == 0 and out == tsv
        code, out, _ = run(capsys, "--format", "json", *argv)
        ms = json.loads(out)["ms"]
        assert code == 0 and isinstance(ms, float)
        assert out == json.dumps({**obj, "ms": ms}) + "\n"

    def test_dagger_negative_index(self, capsys):
        assert "--i" in refused(capsys, "dagger", "[1]", "--n", "3", "--i", "-1")

    def test_chain_negative_degree(self, capsys):
        assert "--n" in refused(capsys, "chain", "[1]", "--n", "-2", "--r", "2")

    def test_chain_zero_n(self, capsys):
        assert "positive integer" in refused(capsys, "chain", "[1]", "--n", "0", "--r", "2")

    def test_oversized_output_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert "more than 1000000 parts" in refused(capsys, "dagger", "[1]", "--n", "3", "--i", str(10**9))
        assert "parts" in refused(capsys, "dagger", "[1]", "--n", "3", "--i", "1000001")
        assert "boxes, more than 1000000" in refused(capsys, "chain", "[1]", "--n", "2", "--r", str(10**5))
        assert "boxes" in refused(capsys, "chain", "[1]", "--n", "2", "--r", str(10**9))
        assert "1000405 boxes" in refused(capsys, "chain", "[1]", "--n", "2", "--r", "1414")
        assert time.perf_counter() - start < 1.0

    def test_closed_route_zero_n(self, capsys):
        message = refused(capsys, "kron", "[]", "[]", "[]", "--n", "0", "--route", "closed")
        assert "positive integer" in message and "--fallback" not in message


class TestRestrict:
    def test_degree_two_table(self, capsys):
        code, out, _ = run(capsys, "restrict", "[1]", "--r", "1", "--s", "1")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "lambda\tmu\tmultiplicity"
        assert set(lines[1:]) == {"[]\t[1]\t1", "[1]\t[]\t1", "[1]\t[1]\t1"}
        code, out, _ = run(capsys, "--format", "json", "restrict", "[1]", "--r", "1", "--s", "1")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"command": "restrict", "lambda": "[]", "mu": "[1]", "multiplicity": "1"},
            {"command": "restrict", "lambda": "[1]", "mu": "[]", "multiplicity": "1"},
            {"command": "restrict", "lambda": "[1]", "mu": "[1]", "multiplicity": "1"},
        ]

    def test_negative_degree(self, capsys):
        assert "--r" in refused(capsys, "restrict", "[1]", "--r", "-1", "--s", "1")

    def test_label_larger_than_degree(self, capsys):
        assert "[5]" in refused(capsys, "restrict", "[5]", "--r", "1", "--s", "1")
        assert "[1]" in refused(capsys, "restrict", "[1]", "--r", "0", "--s", "0")

    def test_oversized_restriction_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert "more than 10000 label pairs" in refused(capsys, "restrict", "[1]", "--r", "20", "--s", "20")
        assert "label pairs" in refused(capsys, "restrict", "[1]", "--r", "1000000000", "--s", "1")
        assert "label pairs" in refused(capsys, "restrict", "[1]", "--r", "0", "--s", "1000000000")
        assert time.perf_counter() - start < 1.0

    def test_small_degrees_admitted(self, capsys):
        for r in range(8):
            code, out, _ = run(capsys, "restrict", "[]", "--r", str(r), "--s", str(7 - r))
            assert code == 0 and out.startswith("lambda\tmu\tmultiplicity\n")


class TestDiagram:
    def test_compose(self, capsys):
        code, out, _ = run(capsys, "diagram", "compose", "{1,2,1'}{2'}", "{1,2'}{2}{1'}")
        assert code == 0 and out == "delta^1 {1,2,2'}{1'}\n"
        code, out, _ = run(capsys, "--format", "json", "diagram", "compose", "{1,2,1'}{2'}", "{1,2'}{2}{1'}")
        assert code == 0 and json.loads(out) == {"command": "compose", "t": 1, "diagram": "{1,2,2'}{1'}"}

    def test_compose_with_delta(self, capsys):
        code, out, _ = run(
            capsys, "diagram", "compose", "{1,2,1'}{2'}", "{1,2'}{2}{1'}", "--delta", "4"
        )
        assert code == 0 and out == "delta^1 {1,2,2'}{1'} scalar=4\n"
        code, out, _ = run(
            capsys, "diagram", "compose", "{1,2,1'}{2'}", "{1,2'}{2}{1'}", "--delta", "7/2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"command": "compose", "t": 1, "diagram": "{1,2,2'}{1'}", "scalar": "7/2"}
        message = refused(capsys, "diagram", "compose", "{1,2,1'}{2'}", "{1,2'}{2}{1'}", "--delta", "x")
        assert message.startswith("error: bad rational 'x'")
        # --delta is an option of compose, after it
        refused(capsys, "--delta", "4", "diagram", "compose", "{1,2,1'}{2'}", "{1,2'}{2}{1'}")

    def test_compose_refuses_a_signed_vertex(self, capsys):
        assert "bad vertex '-1'" in refused(capsys, "diagram", "compose", "{1,-1}", "{1}")

    def test_compose_refuses_a_leading_zero(self, capsys):
        assert "bad vertex '01'" in refused(capsys, "diagram", "compose", "{01,1'}", "{1,1'}")

    def test_profile(self, capsys):
        code, out, _ = run(
            capsys,
            "diagram",
            "profile",
            "{1}{2,3,4,1'}{5,12}{6,13}{7}{8,9,14,2'}{10,11,3'}{15,5'}{16,4'}",
            "--r", "10", "--s", "6",
        )
        assert code == 0 and out == "p_r=1 p_s=2 p_c=2 n_c=2\n"
        code, out, _ = run(capsys, "--format", "json", "diagram", "profile", "{1,1'}{2}", "--r", "1", "--s", "1")
        assert code == 0 and json.loads(out) == {"command": "profile", "p_r": 1, "p_s": 0, "p_c": 0, "n_c": 0}

    def test_dims(self, capsys):
        code, out, _ = run(capsys, "diagram", "dims", "--r", "2")
        assert code == 0
        assert "algebra dimension = 15" in out
        code, out, _ = run(capsys, "--format", "json", "diagram", "dims", "--r", "2")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and rows[0] == {"command": "dims", "nu": "[]", "dim": "2"} and len(rows) == 4

    def test_oversized_dims_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert "--r <= 48" in refused(capsys, "diagram", "dims", "--r", "80")
        assert "--r <= 48" in refused(capsys, "diagram", "dims", "--r", str(10**9))
        assert time.perf_counter() - start < 1.0

    def test_dims_negative_degree(self, capsys):
        assert "--r" in refused(capsys, "diagram", "dims", "--r", "-1")

    def test_profile_negative_split(self, capsys):
        assert "--r" in refused(capsys, "diagram", "profile", "{1,1'}{2,2'}", "--r", "-1", "--s", "3")


class TestTable:
    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 4

    def test_negative_degree(self, capsys):
        assert "--n" in refused(capsys, "table", "--n", "-2")

    def test_oversized_table_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert "p(22)^2 = 1004004 cells" in refused(capsys, "table", "--n", "60")
        assert "--n <= 21" in refused(capsys, "table", "--n", "22")
        assert "--n" in refused(capsys, "table", "--n", str(10**9))
        assert time.perf_counter() - start < 1.0


SMALL_SWEEP = ("--max-weight", "1", "--extra-n", "1", "--dim-max", "3")
SWEEP_CHECKS = ("kron_routes", "dim_identity")
# the default sweep, sweep_rows(4, 3, 6): the SHA-256 of its stdout in each
# format, the summary's row counts, and the route rows with a gbar value
DEFAULT_SWEEP_SHA256 = {
    "tsv": "3ede220229ff9736e8e605bc96b9c99f297f2707eca83c5059d013abd8e7d119",
    "json": "5bb0177a431e72db9de2ec7585b951c63db667d142a7c8f7b62ea3c212bd3909",
}
DEFAULT_SWEEP_ROWS = {"kron_routes": 20673, "dim_identity": 280}
DEFAULT_SWEEP_COLUMNS = {"gbar=": 17499}


def replay_default_sweep(monkeypatch) -> None:
    """Make cli.sweep_rows replay the default sweep's rows, taken before the
    patch, so that a cold cache does not replay into itself."""
    rows = default_sweep()

    def replay(*bounds):
        assert bounds == (4, 3, 6)
        return iter(rows)

    monkeypatch.setattr(cli, "sweep_rows", replay)


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "sweep", *SMALL_SWEEP)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "check\tcase\tvalues\tok"
        assert all(line.endswith("True") for line in lines[1:])

    def test_empty_bounds_empty_report(self, capsys):
        code, out, err = run(capsys, "sweep", "--max-weight", "-1", "--extra-n", "0", "--dim-max", "0")
        assert code == 0
        assert out == "check\tcase\tvalues\tok\n"
        assert json.loads(err)["rows"] == dict.fromkeys(SWEEP_CHECKS, 0)

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_summary_counts_the_rows(self, capsys, fmt):
        code, out, err = run(capsys, "--format", fmt, "sweep", *SMALL_SWEEP)
        assert code == 0
        if fmt == "json":
            checks = [json.loads(line)["check"] for line in out.splitlines()]
        else:
            checks = [line.split("\t")[0] for line in out.splitlines()[1:]]
        summary = json.loads(err)
        assert list(summary["rows"]) == list(SWEEP_CHECKS)
        assert summary["rows"] == Counter(checks) and all(summary["rows"].values())
        assert summary["failed"] == 0 and summary["seconds"] >= 0 and summary["rows_per_s"] > 0

    def test_default_sweep_is_pinned(self, capsys, monkeypatch):
        # the rows are computed once and replayed to both formats
        replay_default_sweep(monkeypatch)
        for fmt, digest in DEFAULT_SWEEP_SHA256.items():
            code, out, err = run(capsys, "--format", fmt, "sweep")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
            assert {column: out.count(column) for column in DEFAULT_SWEEP_COLUMNS} == DEFAULT_SWEEP_COLUMNS
            summary = json.loads(err)
            assert summary["rows"] == DEFAULT_SWEEP_ROWS and summary["failed"] == 0

    def test_failing_row(self, capsys, monkeypatch):
        real = kronecker.kron_via_dagger
        monkeypatch.setattr(kronecker, "kron_via_dagger", lambda *args: real(*args) + 1)
        code, out, err = run(capsys, "sweep", *SMALL_SWEEP)
        assert code == 1
        summary, last = err.splitlines()
        failed = json.loads(summary)["failed"]
        assert failed >= 1 and out.count("\tFalse\n") == failed
        assert last == f"error: {failed} sweep mismatches"

    def test_negative_extra_n_refused(self, capsys):
        message = refused(capsys, "sweep", "--max-weight", "0", "--extra-n", "-5", "--dim-max", "0")
        assert "--extra-n" in message

    def test_negative_extra_n_refused_as_a_process(self):
        proc = kroncoef_process("sweep", "--max-weight", "0", "--extra-n", "-5", "--dim-max", "0")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: --extra-n") and proc.stderr.count("\n") == 1, proc.stderr

    def test_oracle_refused_past_its_class_cap(self, capsys, monkeypatch):
        # the route rows reach n = 4 * max_weight + extra_n: n = 60 would run
        # the oracle over p(60) = 966,467 classes
        start = time.perf_counter()
        message = refused(capsys, "sweep", "--max-weight", "0", "--extra-n", "60", "--dim-max", "0")
        assert message.startswith("error: the oracle route at n = 60 sums over more than")
        assert "--max-weight" in refused(capsys, "sweep", "--max-weight", "11", "--dim-max", "0")
        assert time.perf_counter() - start < 1.0
        # the defaults (n <= 19) and --max-weight 5 (n <= 23) are admitted
        monkeypatch.setattr(cli, "sweep_rows", lambda *bounds: iter(()))
        for argv in ((), ("--max-weight", "5")):
            code, _, _ = run(capsys, "sweep", *argv)
            assert code == 0, argv

    def test_jobs_and_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "sweep", "--max-weight", "1", "--extra-n", "0", "--dim-max", "2")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert all(row["ok"] for row in rows)


class TestArgparseRefusals:
    """argparse's own refusals leave the way every other refusal does."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("kron", "[1]", "[1]", "[2]"), "the following arguments are required: --n"),
            (("kron", "[1]", "[1]", "[2]", "--n", "4", "--bogus"), "unrecognized arguments: --bogus"),
            (("kron", "[1]", "[1]", "[2]", "--n", "x"), "argument --n: invalid int value: 'x'"),
            (("--format", "xml", "table", "--n", "3"), "argument --format: invalid choice: 'xml'"),
            ((), "the following arguments are required: command"),
            (("lr", "[1]", "[1]", "[2]", "--eta"), "argument --eta: expected one argument"),
        ],
    )
    def test_one_error_line(self, capsys, argv, message):
        assert refused(capsys, *argv).startswith(f"error: {message}")

    def test_as_a_process(self):
        proc = kroncoef_process("kron", "[1]", "[1]", "[2]")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: the following arguments are required: --n\n"

    def test_help_exits_zero(self):
        proc = kroncoef_process("--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: kroncoef")


def test_import_loads_no_dataclasses():
    code = "import sys, kroncoef.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


# an import or the argv of one command, run in a fresh process, and the
# package modules and watched standard modules it leaves loaded
CLI = {"cli", "partitions"}
KRON = CLI | {"sym_characters", "kronecker"}
DIAGRAM = KRON | {"diagram_algebra", "fractions"}
FOOTPRINTS = [
    ("import kroncoef", set()),
    ("import kroncoef.cli", CLI),
    ("import kroncoef; kroncoef.lr", {"lr", "partitions"}),
    (["kron", "[1]", "[1]", "[2]", "--n", "4"], KRON),
    (["rkron", "[1]", "[1]", "[2]"], KRON),
    (["dagger", "[1]", "--n", "4", "--i", "2"], CLI),
    (["lr", "[1]", "[1]", "[2]"], CLI | {"lr"}),
    (["table", "--n", "3"], CLI | {"sym_characters"}),
    (["chain", "[1]", "--n", "4", "--r", "3"], CLI),
    (["restrict", "[1]", "--r", "1", "--s", "1"], DIAGRAM),
    (["diagram", "dims", "--r", "2"], DIAGRAM),
]
WATCHED = ("dataclasses", "inspect", "fractions")


@pytest.mark.parametrize(
    "run, loaded", FOOTPRINTS, ids=[run if isinstance(run, str) else " ".join(run) for run, _ in FOOTPRINTS]
)
def test_import_footprint(run, loaded):
    statement = run if isinstance(run, str) else f"from kroncoef.cli import main; main({run!r})"
    listing = f"sorted(m.removeprefix('kroncoef.') for m in sys.modules if m.startswith('kroncoef.') or m in {WATCHED})"
    code = f"import sys\n{statement}\nprint({listing})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(sorted(loaded))


def readme_commands() -> list[list[str]]:
    """The arguments of every kroncoef line in the README's CLI block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("kroncoef ")]


def test_readme_sweep_defaults_and_summary():
    # the sweep section's default bounds are build_parser's, and its summary
    # line's rows are the pinned default sweep's
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = " ".join(fh.read().split())
    bounds = re.search(r"the default bounds \(`([^`]*)`\)", text).group(1).split()
    defaults = vars(cli.build_parser().parse_args(["sweep"]))
    options = {k: v for k, v in defaults.items() if k not in ("command", "format", "func")}
    assert dict(zip(bounds[::2], map(int, bounds[1::2]))) == {f"--{k.replace('_', '-')}": v for k, v in options.items()}
    assert json.loads(re.search(r'\{"rows": (\{[^}]*\})', text).group(1)) == DEFAULT_SWEEP_ROWS


def test_readme_examples_exit_zero(capsys, monkeypatch):
    # the sweep line replays the default sweep that the pin test checks
    replay_default_sweep(monkeypatch)
    commands = readme_commands()
    assert len(commands) == 14
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv


def test_console_script_is_main():
    # the one script of pyproject.toml's [project.scripts], which README's
    # pip install -e . installs; read by a regex, since tomllib needs 3.11
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        text = fh.read()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    scripts = dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]*)"', section, re.M))
    assert list(scripts) == ["kroncoef"]
    module, function = scripts["kroncoef"].split(":")
    assert getattr(importlib.import_module(module), function) is cli.main
