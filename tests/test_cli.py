import json

import pytest

from kroncoef.cli import main


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

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "kron", "[2,1]", "[2]", "[1,1]", "--n", "7")
        _, out2, _ = run(capsys, "kron", "[2,1]", "[2]", "[1,1]", "--n", "7")
        assert out1 == out2

    def test_bad_partition_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["kron", "2,1", "[1]", "[1]", "--n", "4"])

    def test_invalid_padding(self, capsys):
        with pytest.raises(SystemExit):
            main(["kron", "[2,1]", "[1]", "[1]", "--n", "4"])

    def test_closed_route(self, capsys):
        code, out, _ = run(capsys, "kron", "[1]", "[1]", "[2]", "--n", "4", "--route", "closed")
        assert code == 0 and out == "1\n"
        code, out, _ = run(capsys, "kron", "[1]", "[1]", "[1,1]", "--n", "4", "--route", "closed")
        assert code == 0 and out == "1\n"

    def test_closed_route_out_of_range_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["kron", "[2,1]", "[2,1]", "[2,1]", "--n", "9", "--route", "closed"])

    def test_closed_route_fallback(self, capsys):
        code, out, _ = run(
            capsys, "kron", "[2,1]", "[2,1]", "[2,1]", "--n", "9", "--route", "closed", "--fallback"
        )
        assert code == 0 and out == "9\n"


class TestRkron:
    def test_examples(self, capsys):
        for nu in ("[]", "[1]", "[1,1]", "[2]"):
            code, out, _ = run(capsys, "rkron", "[1]", "[1]", nu)
            assert code == 0 and out == "1\n"

    def test_single_route(self, capsys):
        code, out, _ = run(capsys, "rkron", "[2,1]", "[2,1]", "[2,1]", "--route", "stable")
        assert code == 0 and out == "9\n"


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

    def test_dagger(self, capsys):
        code, out, _ = run(capsys, "dagger", "[10,10]", "--n", "30", "--i", "8")
        assert code == 0 and out == "[11,11,11,1,1,1,1,1]\n"

    def test_dagger_negative_index(self, capsys):
        assert "--i" in refused(capsys, "dagger", "[1]", "--n", "3", "--i", "-1")

    def test_chain_negative_degree(self, capsys):
        assert "--n" in refused(capsys, "chain", "[1]", "--n", "-2", "--r", "2")

    def test_chain_zero_n(self, capsys):
        assert "positive integer" in refused(capsys, "chain", "[1]", "--n", "0", "--r", "2")


class TestRestrict:
    def test_degree_two_table(self, capsys):
        code, out, _ = run(capsys, "restrict", "[1]", "--r", "1", "--s", "1")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "lambda\tmu\tmultiplicity"
        assert set(lines[1:]) == {"[]\t[1]\t1", "[1]\t[]\t1", "[1]\t[1]\t1"}

    def test_negative_degree(self, capsys):
        assert "--r" in refused(capsys, "restrict", "[1]", "--r", "-1", "--s", "1")

    def test_label_larger_than_degree(self, capsys):
        assert "[5]" in refused(capsys, "restrict", "[5]", "--r", "1", "--s", "1")
        assert "[1]" in refused(capsys, "restrict", "[1]", "--r", "0", "--s", "0")


class TestDiagram:
    def test_compose(self, capsys):
        code, out, _ = run(capsys, "diagram", "compose", "{1,2,1'}{2'}", "{1,2'}{2}{1'}")
        assert code == 0 and out == "delta^1 {1,2,2'}{1'}\n"

    def test_compose_with_delta(self, capsys):
        code, out, _ = run(
            capsys, "diagram", "compose", "{1,2,1'}{2'}", "{1,2'}{2}{1'}", "--delta", "4"
        )
        assert code == 0 and out == "delta^1 {1,2,2'}{1'} scalar=4\n"

    def test_profile(self, capsys):
        code, out, _ = run(
            capsys,
            "diagram",
            "profile",
            "{1}{2,3,4,1'}{5,12}{6,13}{7}{8,9,14,2'}{10,11,3'}{15,5'}{16,4'}",
            "--r", "10", "--s", "6",
        )
        assert code == 0 and out == "p_r=1 p_s=2 p_c=2 n_c=2\n"

    def test_dims(self, capsys):
        code, out, _ = run(capsys, "diagram", "dims", "--r", "2")
        assert code == 0
        assert "algebra dimension = 15" in out

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


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-weight", "1", "--extra-n", "1",
            "--dim-max", "3", "--stab-max-n", "4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "check\tcase\tvalues\tok"
        assert all(line.endswith("True") for line in lines[1:])
        assert any(line.startswith("stabilization") for line in lines)

    def test_empty_bounds_empty_report(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-weight", "-1", "--extra-n", "0",
            "--dim-max", "0", "--stab-max-n", "0",
        )
        assert code == 0
        assert out == "check\tcase\tvalues\tok\n"

    def test_jobs_and_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "sweep",
            "--max-weight", "1", "--extra-n", "0", "--dim-max", "2", "--stab-max-n", "2",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert all(row["ok"] for row in rows)
