"""Self-test of the benchmark: python3 -m pytest -q bench

Checks the reference oracles, the tracer's rebinding, that the checks
reject wrong outputs, and that a short run of every workload passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import harness
import reference as ref
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def modules():
    return harness.load_program(ROOT)


def test_oracle_at_one_half():
    initial, final = ref.witness_spectra(Fraction(1, 2))
    assert initial == (Fraction(17, 47), Fraction(15, 47), Fraction(15, 47))
    assert final == (Fraction(35, 95), Fraction(33, 95), Fraction(27, 95))
    assert initial[0] <= final[0] and initial[0] + initial[1] <= Fraction(68, 95)
    assert ref.verdict(initial, final) == "ForwardOnly"


def test_threshold_root_is_the_exact_boundary():
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    poly = sum(c * a ** (6 - k) for k, c in enumerate(ref.THRESHOLD_POLY))
    roots = [r for r in sympy.real_roots(poly) if 0 < r < 1]
    assert len(roots) == 1
    assert abs(float(roots[0].evalf(30)) - ref.THRESHOLD_ROOT) < 1e-17
    below, above = ref.THRESHOLD_ROOT - 1e-12, ref.THRESHOLD_ROOT + 1e-12
    assert ref.verdict(*ref.witness_spectra(below)) == "ForwardOnly"
    assert ref.verdict(*ref.witness_spectra(above)) == "Incomparable"


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.527, 0.9, 0.999])
@pytest.mark.parametrize(
    "which,blank", [("initial", "zero"), ("initial", "plus"), ("final", "one")]
)
def test_closed_forms_match_the_amplitudes(alpha, which, blank):
    numeric = ref.svd_schmidt(ref.witness_amplitudes(alpha, which, blank))
    initial, final = ref.witness_spectra(alpha)
    exact = initial if which == "initial" else final
    assert np.allclose(numeric, [float(x) for x in exact], rtol=0, atol=1e-12)


def test_tracer_restores_every_binding(modules):
    before = {name: dict(vars(m)) for name, m in modules.items()}
    with Tracer(modules, harness.TRACED) as tracer:
        assert modules["construction"].kron is not before["linalg"]["kron"]
        assert modules["majorization"].hermitian_eigs is not before["linalg"]["hermitian_eigs"]
        assert modules["cli"].sweep is not before["sweep"]["sweep"]
        harness.invoke(modules["cli"], harness.Call(["threshold", "--lo", "0.3",
                                                     "--hi", "0.9", "--tol", "1e-4"]))
    for name, m in modules.items():
        after = vars(m)
        assert after.keys() == before[name].keys()
        assert all(after[k] is before[name][k] for k in after)
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["sweep.find_threshold"]["calls"] == 1
    assert summary["linalg.kron"]["calls"] > 0
    own = sum(e["self_s"] for e in summary.values())
    assert own == pytest.approx(summary["cli.main"]["total_s"], rel=1e-9)


def _outcome(stdout, code=0, out_bytes=b""):
    return harness.Outcome(code, stdout, "", out_bytes)


def test_checks_reject_wrong_outputs(modules):
    call = harness.Call(["threshold"], params={"kind": "cross", "tol": 1e-8})
    good = {"alpha_star": ref.THRESHOLD_ROOT, "bracket": [0.527165374, 0.527165375],
            "verdict_below": "ForwardOnly", "verdict_above": "Incomparable",
            "grid_sign_changes": 1}
    assert workloads.check_threshold(0, call, _outcome(json.dumps(good))) == []
    bad = dict(good, alpha_star=0.5271654)
    (failure,) = workloads.check_threshold(0, call, _outcome(json.dumps(bad)))
    assert not failure.known
    (failure,) = workloads.check_threshold(0, call, _outcome("", code=5))
    assert not failure.known

    out = ROOT / ".bench_work" / "selftest-report.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    call = harness.Call(["paper-verify", "--alpha-min", "0.5", "--alpha-max", "0.9",
                         "--steps", "3", "--out", str(out)], items=3, out_path=str(out),
                        params={"lo": 0.5, "hi": 0.9, "steps": 3, "format": "csv"})
    outcome, _ = harness.invoke(modules["cli"], call)
    assert workloads.check_witness(0, call, outcome) == []
    flipped = outcome.out_bytes.replace(b"Incomparable", b"ForwardOnly", 1)
    failures = workloads.check_witness(0, call, _outcome(outcome.stdout, out_bytes=flipped))
    assert failures and not any(f.known for f in failures)


def test_report_the_call_did_not_write_reads_empty(modules):
    stale = ROOT / ".bench_work" / "selftest-stale.csv"
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_bytes(b"an earlier call's report\n")
    call = harness.Call(["show-state", "--alpha", "0.5", "--which", "initial"],
                        out_path=str(stale))
    outcome, _ = harness.invoke(modules["cli"], call)
    assert outcome.exit == 0 and outcome.out_bytes == b""


def test_defect_probes_fail_only_as_known(modules):
    workdir = ROOT / ".bench_work" / "selftest-probes"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, probes in workloads.defect_probes(workdir).items():
        outcomes, _ = harness.replay(modules["cli"], probes)
        assert all(f.known for f in workloads.check_all(name, probes, outcomes))
    shutil.rmtree(workdir)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == listed


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "state-files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
