"""End-to-end command-line behavior: output shapes and exit codes."""

import csv
import importlib.metadata
import io
import itertools
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    try:
        import tomli as tomllib
    except ModuleNotFoundError:
        tomllib = None

import cbclat
import cbclat.cli as cli_mod
import cbclat.lattice as lattice_mod
from cbclat.cli import BENCH_COLUMNS, main
from cbclat.freqset import read_set
from cbclat.heuristic import SearchOutcome
from cbclat.lattice import Rank1Lattice, verify_reconstruction
from cbclat.primes import is_prime
from cbclat.search import cbc_construct


def _trail(obj):
    """The trail without its timings, which vary run to run."""
    return [{k: v for k, v in e.items() if k != "seconds"} for e in obj["trail"]]


def write_axis_set(tmp_path, d, N, name="set.txt"):
    path = tmp_path / name
    assert main(["gen", "--set", "axiscross", "--d", str(d), "--N", str(N),
                 "--out", str(path)]) == 0
    return str(path)


def test_gen_to_file_whc(tmp_path, capsys):
    out = tmp_path / "whc.txt"
    rc = main(["gen", "--set", "whc", "--threshold", "100", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "963"
    I = read_set(str(out))
    assert len(I) == 963 and I.d == 10


def test_gen_stdout(capsys):
    assert main(["gen", "--set", "cube", "--d", "1", "--N", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0\n"
    assert captured.err.strip() == "1"
    assert main(["gen", "--set", "axiscross", "--d", "2", "--N", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["-1 0", "0 -1", "0 0", "0 1", "1 0"]
    assert captured.err.strip() == "5"


@pytest.mark.parametrize("args", [
    ["--set", "cube", "--d", "3", "--N", "2"],
    ["--set", "axiscross", "--d", "10", "--N", "64"],
    ["--set", "anova2", "--d", "60", "--N", "1"],
    ["--set", "whc", "--threshold", "200", "--dmax", "14"],
    ["--set", "whc", "--threshold", "6", "--gamma", "1,1/2,1/3", "--dmax", "3"],
    ["--set", "cube", "--d", "3", "--N", "40"],
], ids=["cube", "axiscross", "anova2", "whc", "whc-explicit", "cube-chunks"])
def test_gen_stdout_matches_out_file(tmp_path, capsys, args):
    # One formatter serves both: stdout gets exactly the file's bytes. anova2
    # (7201 x 60) and cube-chunks (81^3 x 3) span several chunks of components.
    out = tmp_path / "set.txt"
    assert main(["gen", *args, "--out", str(out)]) == 0
    count = capsys.readouterr().out
    assert main(["gen", *args]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == out.read_bytes()
    assert captured.err == count


def test_gen_usage_errors(capsys):
    assert main(["gen", "--set", "cube", "--d", "2"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["gen", "--set", "whc", "--threshold", "10",
                 "--gamma", "1,1/2"]) == 1  # explicit weights need --dmax
    assert "dmax" in capsys.readouterr().err
    assert main(["gen", "--set", "pyramid", "--d", "2", "--N", "1"]) == 1
    assert main(["gen", "--set", "whc"]) == 1


def test_construct_success(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 2, 2)
    capsys.readouterr()
    rc = main(["construct", setfile, "--M", "11", "--seed", "3",
               "--mode", "reconstruction"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"status", "d", "M", "z", "mode", "seed", "verified",
                        "trail", "seconds"}
    assert obj["status"] == "success"
    assert obj["d"] == 2 and obj["M"] == 11 and obj["seed"] == 3
    assert obj["mode"] == "reconstruction" and obj["verified"] is True
    assert _trail(obj) == [{"Mtilde": 11, "attempts": 1, "ok": True}]
    assert obj["trail"][0]["seconds"] >= 0
    assert verify_reconstruction(Rank1Lattice(11, tuple(obj["z"])),
                                 read_set(setfile))


def test_construct_unit_square_at_m5(tmp_path, capsys):
    # Smallest interesting reconstruction instance: the four corners of the
    # unit square admit exactly the second components 2 and 3 mod 5.
    setfile = tmp_path / "square.txt"
    setfile.write_text("0 0\n1 0\n0 1\n1 1\n")
    for seed in range(6):
        rc = main(["construct", str(setfile), "--M", "5", "--seed", str(seed),
                   "--mode", "reconstruction"])
        obj = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert obj["status"] == "success" and obj["verified"] is True
        assert obj["z"][0] == 1 and obj["z"][1] in (2, 3)


def test_construct_failure_exit2(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 2, 2)  # 9 frequencies
    capsys.readouterr()
    rc = main(["construct", setfile, "--M", "5", "--seed", "0",
               "--mode", "reconstruction"])
    assert rc == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "failed"
    assert obj["M"] is None and obj["z"] is None and obj["verified"] is False
    assert _trail(obj) == [{"Mtilde": 5, "attempts": 1, "ok": False}]


def test_construct_composite_m_warns(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 1, 3)
    capsys.readouterr()
    rc = main(["construct", setfile, "--M", "10", "--seed", "1",
               "--mode", "integration"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "not prime" in captured.err
    assert json.loads(captured.out)["status"] == "success"


def test_construct_echoes_drawn_seed(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 2, 3)
    capsys.readouterr()
    assert main(["construct", setfile, "--M", "17", "--mode", "reconstruction"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert isinstance(first["seed"], int) and 0 <= first["seed"] < 2**64
    assert main(["construct", setfile, "--M", "17", "--mode", "reconstruction",
                 "--seed", str(first["seed"])]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["z"] == first["z"]


@pytest.mark.parametrize("mode, M", [("reconstruction", 53), ("integration", 11)])
def test_construct_is_the_library_call(tmp_path, capsys, mode, M):
    # construct --seed s prints the z of cbc_construct(I, M, min(T, M), mode,
    # random.Random(s)), a budget past M included.
    setfile = write_axis_set(tmp_path, 3, 4)
    I = read_set(setfile)
    capsys.readouterr()
    for T, seed in ((1, 0), (3, 7), (M, 2), (M + 1, 5), (100, 2**64 - 1)):
        want = cbc_construct(I, M, min(T, M), mode, random.Random(seed))
        rc = main(["construct", setfile, "--M", str(M), "--T", str(T), "--seed", str(seed),
                   "--mode", mode])
        obj = json.loads(capsys.readouterr().out)
        assert (rc, obj["status"], obj["z"]) == (0 if want.success else 2, want.status,
                                                 list(want.z) if want.success else None)


def test_search_json_schema(tmp_path, capsys):
    setfile = tmp_path / "anova.txt"
    main(["gen", "--set", "anova2", "--d", "3", "--N", "2", "--out", str(setfile)])
    capsys.readouterr()
    rc = main(["search", str(setfile), "--seed", "5"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"status", "d", "M", "z", "mode", "seed", "verified",
                        "trail", "seconds"}
    assert obj["status"] == "success" and obj["verified"] is True
    assert obj["mode"] == "reconstruction" and obj["d"] == 3
    assert is_prime(obj["M"])
    assert len(obj["z"]) == 3 and obj["z"][0] == 1
    assert obj["M"] >= 61  # pigeonhole: 61 frequencies
    for entry in obj["trail"]:
        assert set(entry) == {"Mtilde", "attempts", "ok", "seconds"}
        assert 0 <= entry["seconds"] <= obj["seconds"]
    sizes = [entry["Mtilde"] for entry in obj["trail"]]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_search_failure_exit2(tmp_path, capsys, monkeypatch):
    setfile = write_axis_set(tmp_path, 2, 1)
    capsys.readouterr()

    def doomed(I, mode, K, T, rng):
        return SearchOutcome("failed", None, None, (), mode)

    monkeypatch.setattr(cli_mod, "heuristic_search", doomed)
    rc = main(["search", setfile, "--seed", "1"])
    assert rc == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "failed" and obj["M"] is None


def test_reconstruct_demo_one_schema(tmp_path, capsys, monkeypatch):
    # Success and failure share search's result object plus the demo fields;
    # a failure leaves the error fields empty and exits 2.
    setfile = write_axis_set(tmp_path, 2, 1)
    capsys.readouterr()
    assert main(["search", setfile, "--seed", "4"]) == 0
    search_keys = list(json.loads(capsys.readouterr().out))
    assert main(["reconstruct-demo", setfile, "--seed", "4"]) == 0
    ok = json.loads(capsys.readouterr().out)
    assert ok["trail"] and ok["coefficients"] == 5 and ok["max_abs_error"] <= 1e-8

    def doomed(I, mode, K, T, rng):
        return SearchOutcome("failed", None, None, (), mode)

    monkeypatch.setattr(cli_mod, "heuristic_search", doomed)
    assert main(["reconstruct-demo", setfile, "--seed", "4"]) == 2
    failed = json.loads(capsys.readouterr().out)
    assert list(ok) == list(failed) == search_keys + ["coefficients", "max_abs_error", "rel_error"]
    assert failed["status"] == "failed" and failed["M"] is None
    assert failed["max_abs_error"] is None and failed["rel_error"] is None


@pytest.mark.parametrize("args", [["construct", "--M", "11"], ["search"], ["reconstruct-demo"]],
                         ids=["construct", "search", "reconstruct-demo"])
def test_search_csv_format(tmp_path, capsys, args):
    # Every command that reports a result gives the same object in CSV as in
    # JSON: the JSON keys without trail, in order, and the same lattice.
    setfile = write_axis_set(tmp_path, 2, 2)
    capsys.readouterr()
    argv = [args[0], setfile, *args[1:], "--seed", "2"]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == [key for key in obj if key != "trail"]
    values = dict(zip(header, row))
    assert values["status"] == obj["status"] == "success"
    assert values["M"] == str(obj["M"])
    assert values["z"] == " ".join(map(str, obj["z"]))
    assert values["z"].startswith("1 ")


def test_verify_true_and_false(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 2, 2)
    capsys.readouterr()
    main(["search", setfile, "--seed", "4", "--out", str(tmp_path / "res.json")])
    res = json.loads((tmp_path / "res.json").read_text())
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"M": res["M"], "z": res["z"]}))
    assert main(["verify", setfile, str(good)]) == 0
    assert capsys.readouterr().out.strip() == "true"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"M": 5, "z": [1, 0]}))
    assert main(["verify", setfile, str(bad)]) == 2
    assert capsys.readouterr().out.strip() == "false"


def test_verify_io_errors(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 2, 2)
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    for text in ['{"M": 7}',                          # no z entry
                 '{"M": 11.5, "z": [1, 4.7]}',        # truncated, (11, (1, 4)) would verify
                 '{"M": 7, "z": 5}',
                 '[7, [1, 2]]',
                 '{"M": null, "z": [1, 2]}',
                 '{"M": 11, "z": [1, 4], "d": 2.5}',
                 '{"M": 11, "z": [true, 4]}',         # read as (11, (1, 4)), which verifies
                 '{"M": true, "z": [0, 0]}',
                 '{"M": 11, "z": [1, 4], "d": true}']:
        broken.write_text(text)
        assert main(["verify", setfile, str(broken)]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert main(["verify", setfile, str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_verify_names_missing_field_and_file(tmp_path, capsys):
    # A lattice JSON without M or z names the field; a file that is not JSON
    # names its path.
    setfile = write_axis_set(tmp_path, 2, 2)
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    for text, field in [('{"z": [1, 4]}', "'M'"), ('{"M": 7}', "'z'"), ('{"d": 2}', "'M'")]:
        broken.write_text(text)
        assert main(["verify", setfile, str(broken)]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {broken}: ")
        assert f"no {field} field" in captured.err
    for data in (b"M = 7\n", b"", b'{"M": 7, "z": [1\n', b'{"M": 7, "z": [1, \xff]}'):
        broken.write_bytes(data)
        assert main(["verify", setfile, str(broken)]) == 1, data
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {broken}: ")
        assert "Traceback" not in captured.err


def test_reconstruct_demo(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 2, 3)  # 13 frequencies
    capsys.readouterr()
    rc = main(["reconstruct-demo", setfile, "--seed", "7"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "success" and obj["verified"] is True
    assert obj["coefficients"] == 13
    assert obj["rel_error"] <= 1e-10
    assert obj["max_abs_error"] <= 1e-8


def test_reconstruct_demo_axis_cross_d10(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 10, 64)  # 1,281 frequencies
    capsys.readouterr()
    rc = main(["reconstruct-demo", setfile, "--seed", "3"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "success" and obj["coefficients"] == 1281
    assert obj["rel_error"] <= 1e-10


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--set", "axiscross", "--d", "3,2", "--N", "2",
               "--reps", "2", "--seed", "10", "--out", str(out)])
    assert rc == 0
    assert b"\r" not in out.read_bytes()  # "\n" line ends, as search --format csv
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == list(BENCH_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * (2 + 3)  # 2 experiments, 2 reps + 3 aggregates
    # experiments come out sorted by id even though --d said 3,2
    assert [r[0] for r in rows[:5]] == ["axiscross-d2-N2"] * 5
    assert [r[0] for r in rows[5:]] == ["axiscross-d3-N2"] * 5
    col = {name: i for i, name in enumerate(BENCH_COLUMNS)}
    for block in (rows[:5], rows[5:]):
        assert [r[col["rep"]] for r in block] == ["0", "1", "mean", "min", "max"]
        assert [r[col["seed"]] for r in block[:2]] == ["10", "11"]
        assert all(r[col["status"]] == "success" for r in block[:2])
        assert all(r[col["verified"]] == "True" for r in block[:2])
        sizes = [int(r[col["M"]]) for r in block[:2]]
        assert int(block[0][col["card"]]) <= min(sizes)
        assert float(block[2][col["M"]]) == sum(sizes) / 2
        assert int(block[3][col["M"]]) == min(sizes)
        assert int(block[4][col["M"]]) == max(sizes)


def test_bench_reps0_header_only(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--set", "cube", "--d", "2", "--N", "1",
                 "--reps", "0", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines == [",".join(BENCH_COLUMNS)]


def test_bench_json_format(tmp_path, capsys):
    rc = main(["bench", "--set", "axiscross", "--d", "2", "--N", "1",
               "--reps", "1", "--seed", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and len(payload) == 4
    assert all(set(rec) == set(BENCH_COLUMNS) for rec in payload)
    # Typed values, not the CSV cells: ints, floats, bools and null.
    first = payload[0]
    assert first["rep"] == 0 and first["status"] == "success" and first["verified"] is True
    assert type(first["M"]) is int and type(first["seconds"]) is float
    assert first["threshold"] is None and first["d"] == 2 and first["seed"] == 3
    assert [rec["rep"] for rec in payload[1:]] == ["mean", "min", "max"]
    assert all(rec["status"] is None and rec["verified"] is None for rec in payload[1:])
    assert payload[2]["M"] == payload[3]["M"] == first["M"]


def test_bench_whc_and_usage(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--set", "whc", "--threshold", "10,25", "--reps", "1",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == \
        ["whc-t10"] * 4 + ["whc-t25"] * 4
    assert main(["bench", "--set", "whc", "--reps", "1"]) == 1
    assert main(["bench", "--set", "cube", "--N", "2", "--reps", "1"]) == 1
    capsys.readouterr()


def test_bench_determinism_modulo_seconds(tmp_path):
    args = ["bench", "--set", "axiscross", "--d", "2", "--N", "2",
            "--reps", "2", "--seed", "11"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == 0
        rows = [line.split(",") for line in path.read_text().strip().splitlines()]
        outs.append([row[:-1] for row in rows])  # drop the seconds column
    assert outs[0] == outs[1]


def test_search_json_determinism_modulo_seconds(tmp_path):
    setfile = write_axis_set(tmp_path, 3, 2)
    objs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["search", setfile, "--seed", "8", "--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        del obj["seconds"]
        obj["trail"] = _trail(obj)
        objs.append(obj)
    assert objs[0] == objs[1]


@pytest.mark.parametrize("command, mode", [("search", "reconstruction"),
                                           ("search", "integration"),
                                           ("reconstruct-demo", "reconstruction")])
def test_result_verified_once(tmp_path, capsys, monkeypatch, command, mode):
    # The search verifies its lattice itself; the CLI reports that verdict
    # instead of checking the same lattice a second time.
    setfile = write_axis_set(tmp_path, 3, 4)
    calls = []
    name = f"verify_{mode}"
    original = getattr(lattice_mod, name)

    def counting(lat, I):
        calls.append(lat)
        return original(lat, I)

    monkeypatch.setattr(lattice_mod, name, counting)
    capsys.readouterr()
    args = [command, setfile, "--seed", "3"] + (["--mode", mode] if command == "search" else [])
    assert main(args) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verified"] is True
    assert len(calls) == 1
    assert (calls[0].M, list(calls[0].z)) == (obj["M"], obj["z"])


def test_readme_seed42_example(tmp_path, capsys):
    # The example printed in README.md. Pinned on purpose: a change to the
    # candidate stream has to update the example and this test together.
    setfile = write_axis_set(tmp_path, 6, 64, name="axis.txt")
    capsys.readouterr()
    assert main(["search", setfile, "--mode", "reconstruction", "--seed", "42"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["status"], obj["d"], obj["seed"], obj["verified"]) == ("success", 6, 42, True)
    assert obj["M"] == 9257
    assert obj["z"] == [1, 3684, 5540, 4576, 7953, 3547]
    sizes = (591377, 295693, 147853, 73939, 36973, 18493)
    assert _trail(obj) == ([{"Mtilde": m, "attempts": 1, "ok": True} for m in sizes]
                           + [{"Mtilde": 9257, "attempts": 2, "ok": True},
                              {"Mtilde": 4637, "attempts": 5, "ok": False}])


def test_usage_errors_exit1(tmp_path, capsys):
    assert main(["construct"]) == 1          # missing positional and --M
    assert main(["frobnicate"]) == 1         # unknown subcommand
    assert main(["search"]) == 1             # missing set file
    setfile = write_axis_set(tmp_path, 1, 1)
    # construct needs M >= 2, and says so of --M rather than of --T or of primality
    for M in ("0", "-7", "1"):
        capsys.readouterr()
        assert main(["construct", setfile, "--M", M, "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and "--M" in captured.err
        assert "proceeding anyway" not in captured.err
    # reconstruct-demo always reconstructs, so it refuses --mode
    assert main(["reconstruct-demo", setfile, "--mode", "integration"]) == 1
    assert "--mode" in capsys.readouterr().err
    assert main(["bench", "--set", "cube", "--d", "1", "--N", "1", "--reps", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "--reps" in captured.err
    # the last rep's seed, 2^64, is one that search refuses
    assert main(["bench", "--set", "axiscross", "--d", "2", "--N", "2", "--reps", "2",
                 "--seed", str(2**64 - 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "--seed" in captured.err
    assert main(["bench", "--set", "axiscross", "--d", "2", "--N", "2", "--reps", "1",
                 "--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["search", "SET"], ["reconstruct-demo", "SET"], ["construct", "SET", "--M", "7"],
    ["bench", "--set", "axiscross", "--d", "2", "--N", "2", "--reps", "1"],
], ids=["search", "reconstruct-demo", "construct", "bench"])
def test_budget_flags_below_1_exit1(tmp_path, capsys, argv):
    # --K and --T below 1 are usage errors that name the flag (construct has no --K).
    argv = [str(write_axis_set(tmp_path, 1, 1)) if a == "SET" else a for a in argv]
    flags = ("--T",) if argv[0] == "construct" else ("--K", "--T")
    capsys.readouterr()
    for flag, value in itertools.product(flags, ("0", "-3")):
        assert main([*argv, flag, value, "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {flag} must be >= 1, got {value}\n"
    assert main([*argv, "--seed", "1", "--out", str(tmp_path / "out")]) in (0, 2)


def test_bad_seed_exit1(tmp_path, capsys):
    setfile = write_axis_set(tmp_path, 1, 1)
    assert main(["construct", setfile, "--M", "3", "--seed", str(2**64)]) == 1
    assert "seed" in capsys.readouterr().err


def test_missing_setfile_exit1(tmp_path, capsys):
    assert main(["search", str(tmp_path / "nope.txt"), "--seed", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_non_utf8_setfile_names_file_and_line(tmp_path, capsys):
    setfile = tmp_path / "latin.txt"
    setfile.write_bytes(b"1 2\n\xff 3\n")
    assert main(["search", str(setfile), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {setfile}:2: ")


README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_readme_commands(tmp_path, capsys, monkeypatch):
    # Every cbclat line of the README's "Command line" section, run in order
    # in one directory, exits 0: a documented flag that no longer exists, or
    # a file that no earlier line writes, fails here.
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1].split("\n## ")[0]
    commands = [shlex.split(line, comments=True)
                for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S)
                for line in block.splitlines() if line.startswith("cbclat ")]
    assert {argv[1] for argv in commands} == {"gen", "construct", "search", "verify",
                                              "reconstruct-demo", "bench"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_readme_library_example():
    # The README's "Library" example runs as printed, in a fresh namespace.
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})


def run_checkout(cmd, stdin=None):
    """Run `cmd` with the `cbclat` package that this test session imported
    first on PYTHONPATH, so the child never picks up another copy; stdin, if
    given, is written to the child's standard input, a pipe."""
    env = dict(os.environ)
    src = str(Path(cbclat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, env=env, input=stdin)


def test_console_script_installed():
    toml = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        target = toml.load(f)["project"]["scripts"]["cbclat"]
    entry = importlib.metadata.EntryPoint(name="cbclat", value=target,
                                          group="console_scripts")
    assert entry.load() is main

    # Run the declared target the way an installed console-script wrapper
    # does; where the package is installed, run the real wrapper as well.
    launcher = (f"import sys; from {entry.module} import {entry.attr}; "
                f"sys.exit({entry.attr}())")
    commands = [[sys.executable, "-c", launcher]]
    installed = shutil.which("cbclat")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = run_checkout(command + ["gen", "--set", "cube", "--d", "1", "--N", "1"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["-1", "0", "1"]
        assert proc.stderr.strip() == "3"


def test_module_entry_point():
    proc = run_checkout([sys.executable, "-m", "cbclat.cli", "gen", "--set",
                         "axiscross", "--d", "2", "--N", "0"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0 0"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_search_reads_a_piped_set(tmp_path):
    # `cbclat gen ... | cbclat search /dev/stdin`: a pipe cannot seek or be
    # reopened, so read_set must take its input in one read.
    cbclat_cmd = [sys.executable, "-m", "cbclat.cli"]
    gen = run_checkout(cbclat_cmd + ["gen", "--set", "axiscross", "--d", "3", "--N", "4"])
    assert gen.returncode == 0
    setfile = tmp_path / "set.txt"
    setfile.write_text(gen.stdout)

    def search(path, stdin=None):
        proc = run_checkout(cbclat_cmd + ["search", path, "--seed", "1"], stdin)
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        return dict(obj, seconds=None, trail=_trail(obj))

    expected = search(str(setfile))
    assert expected["status"] == "success"
    for text in (gen.stdout, "# header\n" + gen.stdout):
        assert search("/dev/stdin", text) == expected


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # main keeps one parser for the process: subcommands called one after
    # another in it, reconstruct-demo's fixed mode after an integration search
    # among them, each give what a fresh process gives.
    setfile = str(tmp_path / "set.txt")
    calls = [
        ["gen", "--set", "anova2", "--d", "3", "--N", "1", "--out", setfile],
        ["search", setfile, "--seed", "4", "--mode", "integration"],
        ["reconstruct-demo", setfile, "--seed", "4"],
        ["search", setfile, "--seed", "4", "--K", "2"],
        ["gen", "--set", "cube", "--d", "2", "--N", "1"],
    ]

    def result(rc, out, err):
        if out.startswith("{"):
            obj = json.loads(out)
            out = dict(obj, seconds=None, trail=_trail(obj))
        return rc, out, err

    capsys.readouterr()
    for argv in calls:
        rc = main(argv)
        here = result(rc, *capsys.readouterr())
        proc = run_checkout([sys.executable, "-m", "cbclat.cli", *argv])
        assert here == result(proc.returncode, proc.stdout, proc.stderr), argv
    assert cli_mod._parser() is cli_mod._parser()
