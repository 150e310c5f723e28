import argparse
import ast
import hashlib
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from heavylab import cli, emit, openblas


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_J_at_edge_prints_zero(capsys):
    code, out, err = run(capsys, "rate", "--kind", "J", "--alpha", "1", "--c", "1", "--x", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "0.0"


def test_rate_L_below_support_prints_inf(capsys):
    code, out, err = run(capsys, "rate", "--kind", "L", "--g11", "2", "--x", "1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "inf"


def test_rate_multiple_points_csv(capsys, tmp_path):
    out_file = tmp_path / "rates.csv"
    code, _, _ = run(
        capsys,
        "rate", "--kind", "J", "--alpha", "1", "--c", "1",
        "--x", "1,2,2.5", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# heavylab")
    assert "config_hash=" in lines[0]
    assert lines[1] == "x,rate"
    assert lines[2].endswith("inf")
    assert lines[3].endswith("0.0")
    assert lines[4].split(",")[1] == "2.0"  # c * g(2.5)^-1 = 2


# per command, a run that exits 0 and the shared flags the command does not read
_UNREAD = {
    ("sample", "--count", "10"): "beta n replicas",
    ("spectrum", "--n", "10"): "replicas",
    ("freeconv", "--grid-count", "5"): "alpha beta n replicas seed",
    ("rate", "--kind", "J", "--c", "1", "--x", "2"): "beta n replicas seed",
    ("lpp", "--alpha", "0.5", "--n", "2", "--replicas", "2"): "beta",
    ("net", "--eps", "0.5", "--m", "2", "--trials", "5"): "alpha beta n replicas",
}


def test_unknown_flag_exits_one(capsys, tmp_path):
    code, out, err = run(capsys, "rate", "--kind", "J", "--x", "2", "--mystery", "1")
    assert code == 1
    assert "usage" in err or "config error" in err
    # the ensemble coefficients belong to spectrum alone, on the command
    # line and in a config file; --b is no abbreviation of --beta either;
    # a command takes none of the shared flags it does not read, which would
    # land unread in its header
    cfg = tmp_path / "b.cfg"
    cfg.write_text("b=2\n")
    seed_cfg = tmp_path / "seed.cfg"
    seed_cfg.write_text("seed=1\n")
    unread = [(*base, f"--{flag}", "1") for base, flags in _UNREAD.items() for flag in flags.split()]
    assert len(unread) == 18
    for argv in (
        ("audit", "--b", "2"),
        ("sample", "--a1", "3"),
        ("lpp", "--a2", "1"),
        ("audit", "--config", str(cfg)),
        *unread,
        ("lpp", "--alpha", "0.5", "--n", "2", "--replicas", "2", "--dim", "2"),
        ("freeconv", "--grid-count", "5", "--config", str(seed_cfg)),
        ("preset", "lpp-error-curve", "--seed", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage" in err and "unrecognized arguments" in err


def test_every_declared_flag_is_read():
    # a flag its command never reads would still land in the header and the
    # config hash; the rate constants are read by name from a table, so a
    # string constant counts as a read as well as ``args.<dest>``
    (subparsers,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, parser in subparsers.choices.items():
        func = parser.get_default("func")
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        read = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        read |= {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        declared = {
            a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)
        } - {"out"}
        assert declared <= read, f"{name} declares {sorted(declared - read)} without reading it"


# per --kind, the constants it reads, each with a value
_RATE_CONSTANTS = {
    "J": ("--c", "1"),
    "K": ("--c1", "1", "--cm1", "2", "--taup", "0", "--d", "2"),
    "L": ("--g11", "2"),
}


def test_rate_takes_only_the_constants_its_kind_reads(capsys, tmp_path):
    code, out, err = run(
        capsys, "rate", "--kind", "J", "--alpha", "1", "--c", "1", "--g11", "5", "--taup", "3",
        "--x", "2",
    )
    assert (code, out) == (1, "")
    assert "config error" in err and "--taup --g11" in err
    accepted = 0
    for kind, own in _RATE_CONSTANTS.items():
        for other, theirs in _RATE_CONSTANTS.items():
            for flag, value in zip(theirs[::2], theirs[1::2]):
                argv = ("rate", "--kind", kind, *own, flag, value, "--x", "1,3")
                code, out, err = run(capsys, *argv)
                if other == kind:
                    accepted += 1
                    assert (code, err) == (0, "")
                else:
                    assert (code, out) == (1, "")
                    assert f"config error: rate --kind {kind} does not read {flag}" in err
    assert accepted == 6
    cfg = tmp_path / "g11.cfg"
    cfg.write_text("g11=5\n")
    code, out, err = run(capsys, "rate", "--config", str(cfg), "--kind", "J", "--c", "1", "--x", "2")
    assert (code, out) == (1, "")
    assert "config error" in err and "--g11" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_missing_rate_constant_exits_one(capsys):
    code, _, err = run(capsys, "rate", "--kind", "J", "--x", "3")
    assert code == 1
    assert "config error: rate --kind J needs --c" in err
    code, _, err = run(capsys, "rate", "--kind", "K", "--c1", "1", "--x", "3")
    assert code == 1
    assert "config error: rate --kind K needs --cm1 --taup --d" in err


def test_sample_output_and_determinism(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run(
            capsys,
            "sample", "--law", "mu", "--alpha", "0.5", "--count", "50",
            "--seed", "9", "--out", str(f),
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0].startswith("# heavylab") and "seed=9" in lines[0]
    assert lines[1] == "draw"
    assert len(lines) == 52


def test_spectrum_command(capsys, tmp_path):
    out = tmp_path / "spec.csv"
    code, _, _ = run(
        capsys, "spectrum", "--alpha", "1", "--n", "30", "--seed", "4", "--out", str(out)
    )
    assert code == 0
    vals = [float(v) for v in out.read_text().splitlines()[2:]]
    assert len(vals) == 30
    assert vals == sorted(vals)
    # explicit coefficients replace the unit-variance ensemble
    coef_out = tmp_path / "spec_coef.csv"
    code, _, _ = run(
        capsys, "spectrum", "--alpha", "1", "--n", "30", "--seed", "4",
        "--b", "2", "--a1", "3", "--out", str(coef_out),
    )
    assert code == 0
    lines = coef_out.read_text().splitlines()
    assert {"a1=3.0", "b=2.0"} <= set(lines[0].split())
    coef_vals = [float(v) for v in lines[2:]]
    assert len(coef_vals) == 30
    assert coef_vals != vals


def test_spectrum_reads_a2_at_beta_two_only(capsys, tmp_path):
    # a2 is the imaginary part's coefficient, which beta 1 never draws
    cfg = tmp_path / "a2.cfg"
    cfg.write_text("a2=5\n")
    for argv in (("--a2", "5"), ("--beta", "1", "--a2", "5"), ("--config", str(cfg))):
        code, out, err = run(capsys, "spectrum", "--n", "3", "--seed", "1", *argv)
        assert (code, out) == (1, "")
        assert "config error: spectrum --beta 1 does not read --a2" in err
    for argv in (("--beta", "2", "--a2", "5"), ("--beta", "2", "--config", str(cfg))):
        code, out, err = run(capsys, "spectrum", "--n", "3", "--seed", "1", *argv)
        assert (code, err) == (0, "")
        assert "a2=5.0" in out.splitlines()[0].split()


def test_freeconv_command(capsys, tmp_path):
    out = tmp_path / "fc.csv"
    code, _, _ = run(
        capsys,
        "freeconv", "--theta", "2", "--eta", "0.01", "--grid-count", "201",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "x,re_g,im_g,density"
    dens = [float(row.split(",")[3]) for row in lines[2:]]
    assert max(dens) > 0.05
    assert all(d >= -1e-15 for d in dens)


def test_lpp_command_jsonl(capsys, tmp_path):
    out = tmp_path / "lpp.jsonl"
    code, _, _ = run(
        capsys,
        "lpp", "--alpha", "0.5", "--n", "8", "--replicas", "20",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["header"] is True and head["version"] == emit.VERSION
    recs = [json.loads(line) for line in lines[1:]]
    assert len(recs) == 20
    assert {"n", "alpha", "seed", "T", "g11_hat", "stream"} <= set(recs[0])


def _assert_output(out, header, digest):
    # the header line exactly, and the SHA-256 of every byte below it: the
    # bytes are part of the contract
    head, body = out.split("\n", 1)
    assert head == header
    assert hashlib.sha256(body.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, header, digest",
    [
        (("lpp", "--alpha", "0.5", "--n", "8", "--replicas", "20", "--seed", "3"),
         '{"config":{"alpha":0.5,"command":"lpp","n":8,"replicas":20,"seed":3},'
         '"config_hash":"d91c5b3e4206","header":true,"version":"0.1.0"}',
         "bfaa360fe418198b8234f16605e74febac6d0ad09825051239a10737d0f7d6f8"),
    ],
    ids=["alpha0.5"],
)
def test_lpp_output_bytes_pinned(capsys, argv, header, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    _assert_output(out, header, digest)


@pytest.mark.parametrize(
    "argv, header, digest",
    [
        (("sample", "--law", "mu", "--alpha", "0.5", "--count", "50", "--seed", "9"),
         "# heavylab 0.1.0 config_hash=b1be4a76cafa alpha=0.5 command=sample count=50 law=mu seed=9",
         "42b184b1a206ef3a779fb541093390349946ded168016e46acaaeb042725f801"),
        (("sample", "--law", "nu", "--alpha", "0.3", "--count", "50", "--seed", "1"),
         "# heavylab 0.1.0 config_hash=ed6109923fa5 alpha=0.3 command=sample count=50 law=nu seed=1",
         "3823eab4c1a3db4646fbde7549c3108c5f279c6415bf0f7251a09fb23f5332b9"),
        (("sample", "--law", "nu", "--alpha", "1", "--count", "50", "--seed", "4"),
         "# heavylab 0.1.0 config_hash=41451cb6940f alpha=1.0 command=sample count=50 law=nu seed=4",
         "946e54031f12760465e8ce95d7b651756d2ce7096f38b21c7e65ae691057df97"),
        (("freeconv", "--theta", "2", "--eta", "0.01", "--grid-count", "41"),
         "# heavylab 0.1.0 config_hash=6314d73d02fa command=freeconv eta=0.01 grid_count=41"
         " theta=2.0",
         "0026f6157bf27ee698469166712dcd9c0f1031d8d943c7ebe78afccced4722c6"),
        (("rate", "--kind", "J", "--alpha", "1", "--c", "1", "--x", "2"),
         "# heavylab 0.1.0 config_hash=e36cc420e37e alpha=1.0 c=1.0 command=rate kind=J x=2",
         "51ff0d2f0d3a5d61edec31785532ea0d570f8c348d58b15b94ff9c2ca6e926a4"),
        (("rate", "--kind", "J", "--alpha", "1", "--c", "1", "--x", "1,2,2.5"),
         "# heavylab 0.1.0 config_hash=10ba510ade42 alpha=1.0 c=1.0 command=rate kind=J"
         " x=1,2,2.5",
         "71522fd146020daaa7983a741124d01108e1db2e22cdfb66f528200b64f9715a"),
        (("net", "--p", "0.5", "--q", "2", "--eps", "0.5,0.9", "--m", "8", "--trials", "30",
          "--seed", "5"),
         "# heavylab 0.1.0 config_hash=11429cb5b4d4 command=net eps=0.5,0.9 m=8 p=0.5 q=2.0"
         " seed=5 trials=30",
         "1c0c84d3fb8fed6f413930d2fc6a4bcdb5dba9f197fa2aa4a67ba96f4331f153"),
        (("net", "--p", "1", "--q", "2", "--eps", "0.5,0.9", "--m", "8", "--trials", "30",
          "--seed", "5"),
         "# heavylab 0.1.0 config_hash=be6c5690a32f command=net eps=0.5,0.9 m=8 p=1.0 q=2.0"
         " seed=5 trials=30",
         "84f6f0e79cd5076024985a75fc4d36dfb93698de5ce1ac7976072014bcb849f0"),
    ],
    ids=["sample-mu", "sample-nu-alpha0.3", "sample-nu-alpha1", "freeconv", "rate-single", "rate-multi",
         "net", "net-p1"],
)
def test_csv_output_bytes_pinned(capsys, argv, header, digest):
    # spectrum is left out: its eigenvalues depend on the BLAS build; a CLI
    # process solves on one BLAS thread, and
    # test_spectrum_output_is_the_single_threaded_spectrum checks it against
    # the in-process spectrum on one thread
    code, out, _ = run(capsys, *argv)
    assert code == 0
    _assert_output(out, header, digest)


def _src_env():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_run_does_not_preload_cli():
    # `python -m heavylab.cli` warns at runtime if `import heavylab` already imported the CLI
    env = _src_env()
    argv = ["rate", "--kind", "J", "--alpha", "1", "--c", "1", "--x", "2"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "heavylab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0.0"
    assert proc.stderr == ""
    probe = "import sys, heavylab; print('heavylab.cli' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_no_scipy_subpackage():
    # every CLI process pays for the package's imports; scipy.optimize alone
    # once took two thirds of them, and scipy.special most of the rest; the
    # semicircle quantile table once loaded scipy.optimize for its root finds
    probe = (
        "import sys, heavylab, heavylab.cli, heavylab.specmeasures;"
        " heavylab.specmeasures.semicircle_measure(200);"
        " print(sorted(name for name, mod in sys.modules.items()"
        " if name.startswith('scipy.') and name.count('.') == 1 and hasattr(mod, '__path__')"
        " and not name.startswith('scipy._')), 'numpy.f2py' in sys.modules,"
        " 'numpy.testing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] False False"


def _modules_after(probe):
    proc = subprocess.run(
        [sys.executable, "-c", probe + "\nprint(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_import_loads_neither_numpy_nor_a_module():
    mods = _modules_after("import sys, heavylab")
    assert "numpy" not in mods
    # the error classes and the version, both standard-library only
    assert {m for m in mods if m.startswith("heavylab")} == {
        "heavylab", "heavylab.emit", "heavylab.errors",
    }


def test_sample_loads_only_the_modules_it_runs():
    probe = "\n".join([
        "import contextlib, io, sys",
        "from heavylab.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['sample', '--law', 'nu', '--alpha', '0.5', '--count', '10']) == 0",
    ])
    mods = _modules_after(probe)
    assert {m for m in mods if m.startswith("heavylab")} == {
        "heavylab", "heavylab.cli", "heavylab.emit", "heavylab.errors",
        "heavylab.measures", "heavylab.rng",
    }
    assert "concurrent.futures" not in mods


def test_rate_loads_only_the_modules_it_runs():
    probe = "\n".join([
        "import contextlib, io, sys",
        "from heavylab.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['rate', '--kind', 'J', '--c', '1', '--x', '2.5']) == 0",
    ])
    mods = _modules_after(probe)
    # specmeasures for g_semicircle; the searches' modules load when they run
    assert {m for m in mods if m.startswith("heavylab")} == {
        "heavylab", "heavylab.cli", "heavylab.emit", "heavylab.errors",
        "heavylab.ratefuncs", "heavylab.specmeasures",
    }


def test_net_loads_only_the_modules_it_runs():
    probe = "\n".join([
        "import contextlib, io, sys",
        "from heavylab.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['net', '--m', '4', '--trials', '10']) == 0",
    ])
    mods = _modules_after(probe)
    assert {m for m in mods if m.startswith("heavylab")} == {
        "heavylab", "heavylab.cli", "heavylab.emit", "heavylab.errors",
        "heavylab.measures", "heavylab.nets", "heavylab.rng",
    }
    assert "concurrent.futures" not in mods


def test_version_reads_without_numpy():
    # setuptools reads the dynamic version from pyproject.toml at build
    # time, where numpy may be missing
    tomllib = pytest.importorskip("tomllib")
    pytest.importorskip("setuptools")
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        attr = tomllib.load(fh)["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    probe = (
        "import sys; from setuptools.config.expand import read_attr;"
        f" print(read_attr({attr!r}, {{'': 'src'}}, {str(root)!r}), 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=root, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [emit.VERSION, "False"]


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _caller_env(**env):
    """`_src_env` without the BLAS thread-count variables, then ``env``."""
    return {**{k: v for k, v in _src_env().items() if k not in _BLAS_VARS}, **env}


def _blas_threads(probe, **env):
    probe += "; from heavylab import openblas; lib = openblas._library()"
    probe += "; print(lib.scipy_openblas_get_num_threads64_())"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_caller_env(**env),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(openblas._library() is None, reason="numpy without its bundled OpenBLAS")
@pytest.mark.parametrize("env", [{}, {"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_cli_process_runs_one_blas_thread_unless_its_caller_sets_one(env):
    cli_threads = _blas_threads("import heavylab.cli, numpy", **env)
    if env:
        # the caller's setting, as numpy alone reads it (capped at the CPU count)
        assert cli_threads == _blas_threads("import numpy", **env)
    else:
        assert cli_threads == 1


def test_spectrum_output_is_the_single_threaded_spectrum(capsys):
    argv = ["spectrum", "--alpha", "1", "--n", "400", "--seed", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "heavylab.cli", *argv], capture_output=True, text=True,
        env=_caller_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with openblas.single_threaded():
        code, out, _ = run(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sample", "--alpha", "0.005"), "at least 0.00586546"),
        (("audit", "--functional", "largest_eig", "--alpha", "0.007", "--n", "10",
          "--replicas", "10"), "at least 0.00775312"),
        (("net", "--p", "0.005", "--m", "8"), "not finite"),
        (("sample", "--alpha", "0.006"), "at least 0.00775312"),
        (("lpp", "--alpha", "0.006", "--n", "4", "--replicas", "3"), "at least 0.00775312"),
        (("net", "--p", "0.01", "--m", "16"), "l^p radius at p=0.01 is not finite"),
        (("spectrum", "--alpha", "0.007", "--n", "20"), "at least 0.00775312"),
    ],
    ids=["sample", "audit", "net", "sample-map", "lpp-map", "net-radius", "spectrum-map"],
)
def test_small_exponent_exits_one(capsys, argv, message):
    # the audit's case, at alpha 0.01, once stopped at its moment 2; it now
    # runs (test_small_alpha_spectrum_and_audit_run), and below the map's
    # domain it stops at the map, as spectrum does
    # these ended in an OverflowError traceback (sample, audit), in a
    # one-center net of NaN probes with exit 0 (net), in infinite draws
    # and passage times with exit 0 (sample-map, lpp-map), or in probes
    # divided by an overflowed radius, collapsed to the origin, with a
    # RuntimeWarning and exit 0 (net-radius)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--alpha", "0.01", "--n", "20"),
        ("spectrum", "--alpha", "0.01", "--n", "20", "--beta", "2"),
        ("audit", "--functional", "largest_eig", "--alpha", "0.01", "--n", "10", "--replicas", "10"),
        ("audit", "--functional", "esm_distance", "--alpha", "0.01", "--n", "10", "--replicas", "10"),
    ],
    ids=["spectrum", "spectrum-beta2", "audit-largest-eig", "audit-esm"],
)
def test_small_alpha_spectrum_and_audit_run(capsys, argv):
    # both exited 1 with "moment 2 ... overflows a double": the unit-variance
    # coefficient is now taken from logs where the variance overflows
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = out.strip().splitlines()[1:]
    if argv[0] == "spectrum":
        values = [float(v) for v in lines[1:]]
        assert len(values) == 20
    else:
        records = [json.loads(line) for line in lines]
        values = [r[k] for r in records for k in ("t", "exceedance", "bound")]
        assert len(records) == 4
    assert all(math.isfinite(v) for v in values)


@pytest.mark.parametrize(
    "argv, measure",
    [
        (("rate", "--kind", "J", "--c", "1", "--x", "abc"), None),
        (("audit", "--n", "10", "--replicas", "10", "--t-grid", "0.1,x"), None),
        (("net", "--m", "4", "--eps", "0.5,zz"), None),
        (("freeconv",), "atom,weight\n-1.0,0.5\n1.0;0.5\n"),
        (("freeconv",), "abc,0.5\n1.0,0.5\n"),
        (("freeconv",), "0.0,nan\n1.0,0.5\n"),
        (("audit", "--n", "10", "--replicas", "0"), None),
        (("freeconv", "--grid-count", "0"), None),
        (("freeconv", "--grid-count", "-1"), None),
        (("net", "--m", "0"), None),
        (("net", "--trials", "0"), None),
        (("rate", "--kind", "K", "--c1", "1", "--cm1", "1", "--taup", "0", "--d", "0", "--x", "1"),
         None),
        (("audit", "--n", "10", "--replicas", "10", "--t-grid", "0.1,nan"), None),
        (("audit", "--n", "10", "--replicas", "10", "--t-grid", "0.1,inf"), None),
        (("net", "--m", "4", "--eps", "inf"), None),
        (("net", "--m", "4", "--eps", "nan"), None),
        (("rate", "--kind", "J", "--c", "1", "--x", "nan"), None),
        (("rate", "--kind", "J", "--c", "1", "--x", "inf"), None),
        (("rate", "--kind", "L", "--g11", "nan", "--x", "3"), None),
        (("rate", "--kind", "K", "--c1", "1", "--cm1", "1", "--taup", "nan", "--d", "2", "--x", "1"),
         None),
        (("spectrum", "--n", "3", "--b", "nan"), None),
        (("spectrum", "--n", "3", "--b", "inf"), None),
        (("freeconv", "--grid-lo", "nan"), None),
        (("freeconv", "--grid-hi", "inf"), None),
        (("audit", "--alpha", "0.5", "--n", "1", "--replicas", "10"), None),
        (("audit", "--alpha", "0.5", "--n", "1", "--replicas", "10", "--functional", "esm_distance"),
         None),
        (("spectrum", "--beta", "1", "--n", "3", "--seed", "1", "--a2", "5"), None),
        (("rate", "--kind", "J", "--c", "-1", "--x", ","), None),
        (("audit", "--n", "10", "--replicas", "10", "--t-grid", ","), None),
        (("net", "--m", "4", "--eps", ","), None),
    ],
    ids=["rate-x", "audit-t-grid", "net-eps", "measure-semicolon", "measure-text", "measure-nan",
         "audit-replicas0", "grid-count0", "grid-count-1", "net-m0", "net-trials0", "rate-d0",
         "audit-t-grid-nan", "audit-t-grid-inf", "net-eps-inf", "net-eps-nan",
         "rate-x-nan", "rate-x-inf", "rate-g11-nan", "rate-taup-nan", "spectrum-b-nan",
         "spectrum-b-inf", "grid-lo-nan", "grid-hi-inf", "audit-n1", "audit-n1-esm",
         "spectrum-a2-beta1", "rate-x-empty", "audit-t-grid-empty", "net-eps-empty"],
)
def test_malformed_input_exits_one(capsys, tmp_path, argv, measure):
    # each of these once ended in a traceback (ValueError; ZeroDivisionError
    # for rate-d0; LinAlgError for spectrum-b-nan), in a RuntimeWarning and a
    # fixed point that never converged, exit 2 (measure-nan, grid-lo-nan,
    # grid-hi-inf), or in exit 0 with records of NaN exceedances
    # (audit-replicas0) or thresholds (audit-t-grid-nan), nets of size 0
    # (net-trials0, net-eps-inf, net-eps-nan), a NaN rate (rate-x-nan and the
    # other rate cases), a zeroed diagonal (spectrum-b-inf) or a division by
    # log 1 = 0 (audit-n1, audit-n1-esm), or in exit 0 with a value never
    # read in the header (spectrum-a2-beta1: a2 enters only at beta 2), or in
    # exit 0 on an empty comma list (audit-t-grid-empty ran a hidden default
    # grid, net-eps-empty printed an empty table); rate-x-empty pairs a
    # negative --c with no point to evaluate it at
    if measure is not None:
        path = tmp_path / "measure.csv"
        path.write_text(measure)
        argv = argv + ("--measure", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "heavylab:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--law", "mu", "--alpha", "0.3"),
        ("lpp", "--alpha", "0.3", "--n", "8", "--replicas", "20"),
        ("net", "--p", "0.3", "--m", "8"),
    ],
    ids=["sample", "lpp", "net"],
)
def test_commands_at_alpha_0_3(capsys, argv):
    # the transport map at alpha = 0.3 once failed to tabulate
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.strip()


def test_lpp_rejects_bad_alpha(capsys):
    code, _, err = run(capsys, "lpp", "--alpha", "1.5", "--n", "8", "--replicas", "10")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [("--n", "0", "--replicas", "10"), ("--n", "8", "--replicas", "0"),
     ("--n", "8", "--replicas", "-3")],
    ids=["n0", "replicas0", "replicas-3"],
)
def test_lpp_rejects_empty_runs(capsys, argv):
    # an empty box or run is a config error, not a record with T = inf or a bare header
    code, out, err = run(capsys, "lpp", "--alpha", "0.5", *argv)
    assert code == 1
    assert out == ""
    assert "config error" in err


def test_audit_command(capsys, tmp_path):
    out = tmp_path / "audit.jsonl"
    summary = tmp_path / "audit.csv"
    code, _, _ = run(
        capsys,
        "audit", "--functional", "largest_eig", "--alpha", "1", "--n", "30",
        "--replicas", "100", "--seed", "2", "--t-grid", "0.2,0.5,1.0",
        "--out", str(out), "--summary-out", str(summary),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["header"] is True
    assert len(lines) == 4
    assert summary.read_text().splitlines()[1] == "t,exceedance,bound"


def test_audit_records_past_every_deviation_are_json(capsys, tmp_path):
    # no t of the grid has an exceedance strictly between 0 and 1, so c_hat
    # is inf; json.dumps alone writes it as the non-JSON token Infinity
    out = tmp_path / "audit.jsonl"
    code, _, _ = run(capsys, "audit", "--n", "10", "--replicas", "5", "--t-grid", "50,100",
                     "--out", str(out))
    assert code == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    records = [json.loads(line, parse_constant=reject) for line in out.read_text().splitlines()]
    assert [r["c_hat"] for r in records[1:]] == ["inf", "inf"]


def test_net_command(capsys, tmp_path):
    out = tmp_path / "net.csv"
    code, _, _ = run(
        capsys,
        "net", "--p", "0.5", "--q", "2", "--eps", "0.5,0.9", "--m", "8",
        "--trials", "30", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "eps,size"
    sizes = {float(r.split(",")[0]): int(r.split(",")[1]) for r in lines[2:]}
    assert sizes[0.9] <= sizes[0.5]


def test_preset_command_writes_the_pinned_preset_bytes(capsys, tmp_path):
    # digests pinned by tests/test_experiments.py::test_preset_output_bytes_pinned
    pins = {
        "lpp-error-curve": "441a598b072b52ef8717fb2028285ed838d3d84514198467313b1f6843643360",
        "eig-concentration-small":
            "49ad91c72f513094717ed4242568a66c38d56cf769192c8dc06d9e3ca87c08c0",
    }
    for name, digest in pins.items():
        out = tmp_path / f"{name}.jsonl"
        assert run(capsys, "preset", name, "--out", str(out)) == (0, "", "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    code, out, err = run(capsys, "preset", "nope")
    assert (code, out) == (1, "")
    assert "heavylab: error: unknown preset 'nope'" in err


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nkind=J\nalpha=1\nc=1\nx=2\n")
    code, out, _ = run(capsys, "rate", "--config", str(cfg))
    assert code == 0
    assert out.strip().splitlines()[-1] == "0.0"
    # explicit flag overrides the file value
    code, out, _ = run(capsys, "rate", "--config", str(cfg), "--x", "1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "inf"


def test_config_file_missing_exits_one(capsys):
    code, _, err = run(capsys, "rate", "--config", "/nonexistent.cfg")
    assert code == 1


def test_byte_identical_rerun_audit(capsys, tmp_path):
    f1, f2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    argv = [
        "audit", "--functional", "largest_eig", "--alpha", "1", "--n", "25",
        "--replicas", "100", "--seed", "11", "--t-grid", "0.2,0.6",
    ]
    assert cli.main(argv + ["--out", str(f1)]) == 0
    assert cli.main(argv + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
