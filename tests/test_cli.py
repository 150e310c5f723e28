import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from heavylab import cli


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


def test_unknown_flag_exits_one(capsys):
    code, out, err = run(capsys, "rate", "--kind", "J", "--x", "2", "--mystery", "1")
    assert code == 1
    assert "usage" in err or "config error" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_missing_rate_constant_exits_one(capsys):
    code, _, err = run(capsys, "rate", "--kind", "J", "--x", "3")
    assert code == 1
    assert "error" in err


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
    assert head["header"] is True and head["version"] == cli.VERSION
    recs = [json.loads(line) for line in lines[1:]]
    assert len(recs) == 20
    assert {"n", "alpha", "seed", "T", "T_det", "g11_hat", "stream"} <= set(recs[0])


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("lpp", "--alpha", "0.5", "--n", "8", "--replicas", "20", "--seed", "3"),
         "5048cded72b5def230fc8b20e89b10d9272f178cc844473182a32f191f4fb08e"),
        (("lpp", "--alpha", "0.3", "--n", "8", "--replicas", "20", "--seed", "3", "--spike", "2"),
         "cf429639ca64f7dda71589b8015601981405790c0567c9d69725b90a29c2b1f1"),
    ],
    ids=["alpha0.5", "alpha0.3-spike2"],
)
def test_lpp_output_bytes_pinned(capsys, argv, digest):
    # SHA-256 of the whole output, header and records: the bytes are part of the contract
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("sample", "--law", "mu", "--alpha", "0.5", "--count", "50", "--seed", "9"),
         "2bb8a950460383ffa926c0eaafb61e7aab5d3926274b607301bea46304c8d012"),
        (("sample", "--law", "nu", "--alpha", "0.3", "--count", "50", "--seed", "1"),
         "5f8a15382f55083ef3b046838bf0b763e0ec5eaaffbdf8bdcf17d3065e80b1c2"),
        (("freeconv", "--theta", "2", "--eta", "0.01", "--grid-count", "41"),
         "76850d8ac30711eba56c4b65fe63728b4fd0436b5f6c4e492eb67fb7f2287247"),
        (("rate", "--kind", "J", "--alpha", "1", "--c", "1", "--x", "2"),
         "f3b2055949c2fa0f5624723d5913d340d110ecbe4337f4fbd1855cdcb0e21ff7"),
        (("rate", "--kind", "J", "--alpha", "1", "--c", "1", "--x", "1,2,2.5"),
         "df3fac1025d4a1970714bb67b8268b5b68c6eaf3edd40c9a60ff6fe2eeb65e22"),
        (("net", "--p", "0.5", "--q", "2", "--eps", "0.5,0.9", "--m", "8", "--trials", "30",
          "--seed", "5"),
         "f63b213caa95e176e9f27a4ea8bd55e9fb587c3b7085a44f3447b5c2ce828338"),
    ],
    ids=["sample-mu", "sample-nu-alpha0.3", "freeconv", "rate-single", "rate-multi", "net"],
)
def test_csv_output_bytes_pinned(capsys, argv, digest):
    # spectrum is left out: its eigenvalues depend on the BLAS thread count
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_import_loads_no_scipy_subpackage_but_special():
    # every CLI process pays for the package's imports; scipy.optimize alone
    # once took two thirds of them
    probe = (
        "import sys, heavylab, heavylab.cli; print(sorted(name for name, mod in sys.modules.items()"
        " if name.startswith('scipy.') and name.count('.') == 1 and hasattr(mod, '__path__')"
        " and not name.startswith('scipy._')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.special']"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sample", "--alpha", "0.005"), "at least 0.00586546"),
        (("audit", "--functional", "largest_eig", "--alpha", "0.01", "--n", "10",
          "--replicas", "10"), "moment 2"),
        (("net", "--p", "0.005", "--m", "8"), "not finite"),
        (("sample", "--alpha", "0.006"), "at least 0.00775312"),
        (("lpp", "--alpha", "0.006", "--n", "4", "--replicas", "3"), "at least 0.00775312"),
        (("net", "--p", "0.01", "--m", "16"), "l^p radius at p=0.01 is not finite"),
    ],
    ids=["sample", "audit", "net", "sample-map", "lpp-map", "net-radius"],
)
def test_small_exponent_exits_one(capsys, argv, message):
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
    "argv, measure",
    [
        (("rate", "--kind", "J", "--c", "1", "--x", "abc"), None),
        (("audit", "--n", "10", "--replicas", "10", "--t-grid", "0.1,x"), None),
        (("net", "--m", "4", "--eps", "0.5,zz"), None),
        (("freeconv",), "atom,weight\n-1.0,0.5\n1.0;0.5\n"),
        (("freeconv",), "abc,0.5\n1.0,0.5\n"),
        (("freeconv",), "0.0,nan\n1.0,0.5\n"),
    ],
    ids=["rate-x", "audit-t-grid", "net-eps", "measure-semicolon", "measure-text", "measure-nan"],
)
def test_malformed_input_exits_one(capsys, tmp_path, argv, measure):
    # each of these once ended in a ValueError traceback, or (measure-nan)
    # in a RuntimeWarning and a fixed point that never converged, exit 2
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
