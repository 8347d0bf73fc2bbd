import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from strategies import admissible_cases

from affinehs import library
from affinehs.cli import main
from affinehs.params import load_params, save_params, truncate
from affinehs.pdmpsim import CounterStream, PathSimulator, terminal_statistics
from affinehs.symcone import VecBasis, sym_to_json


@pytest.fixture
def mc_param_file(tmp_path):
    s = library.get("mc2-00")
    path = tmp_path / "params.json"
    save_params(s.params, path)
    return s, str(path)


def _write_matrix(path, mat):
    path.write_text(json.dumps(sym_to_json(np.asarray(mat, dtype=float))))
    return str(path)


def test_validate_pass(mc_param_file, tmp_path):
    _, pfile = mc_param_file
    code = main(["validate", "--params", pfile, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "admissibility.json").read_text())
    assert report["all_passed"]
    assert {c["condition"] for c in report["conditions"]} == {"i_a", "i_b", "ii", "iii", "iv"}


def test_validate_flags_bad_drift(tmp_path):
    obj = {"dim": 2, "b": sym_to_json(np.diag([-1.0, 0.0])), "B": {}, "m": {}, "mu": {}}
    pfile = tmp_path / "bad_drift.json"
    pfile.write_text(json.dumps(obj))
    code = main(["validate", "--params", str(pfile), "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "admissibility.json").read_text())
    failing = [c["condition"] for c in report["conditions"] if not c["passed"]]
    assert failing == ["ii"]


def test_validate_malformed_json(tmp_path):
    pfile = tmp_path / "broken.json"
    pfile.write_text("{ nope")
    code = main(["validate", "--params", str(pfile), "--out", str(tmp_path)])
    assert code == 2


def test_solve_zero_initial(mc_param_file, tmp_path):
    _, pfile = mc_param_file
    ufile = _write_matrix(tmp_path / "u0.json", np.zeros((2, 2)))
    code = main(["solve", "--params", pfile, "--u", ufile, "--T", "1.0",
                 "--k", "4", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "riccati.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["phi"]) == 0.0 for r in rows)
    assert all(float(r["psi_11"]) == 0.0 and float(r["psi_22"]) == 0.0 for r in rows)


def test_solve_linear_closed_form(tmp_path):
    import scipy.linalg
    from affinehs.params import build_admissible
    beta = np.array([[-0.5, 0.2], [0.0, -0.4]])
    p = build_admissible(2, beta=beta, b_extra=np.eye(2))
    pfile = tmp_path / "linear.json"
    save_params(p, pfile)
    u = np.array([[0.5, 0.1], [0.1, 0.4]])
    ufile = _write_matrix(tmp_path / "u.json", u)
    code = main(["solve", "--params", str(pfile), "--u", ufile, "--T", "2.0",
                 "--grid", "5", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "riccati.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        t = float(row["t"])
        e_mat = scipy.linalg.expm(t * beta)
        expected = e_mat.T @ u @ e_mat
        assert float(row["psi_11"]) == pytest.approx(expected[0, 0], abs=1e-8)
        assert float(row["psi_12"]) == pytest.approx(expected[0, 1], abs=1e-8)


def test_solve_cascade_emits_residuals(tmp_path):
    s = library.get("cascade-00")
    pfile = tmp_path / "cascade.json"
    save_params(s.params, pfile)
    ufile = _write_matrix(tmp_path / "u.json", s.u)
    code = main(["solve", "--params", str(pfile), "--u", ufile, "--T", "0.5",
                 "--cascade", "--grid", "5", "--out", str(tmp_path)])
    assert code == 0
    diag = json.loads((tmp_path / "cascade.json").read_text())
    # per-k residuals present and decreasing overall
    ks = sorted(int(k) for k in diag["residuals"])
    assert len(ks) >= 3
    assert diag["residuals"][str(ks[-1])] < diag["residuals"][str(ks[0])]


def test_moments_subcommand(mc_param_file, tmp_path):
    s, pfile = mc_param_file
    code = main(["moments", "--params", pfile, "--k", "4", "--T", "1.0",
                 "--grid", "3", "--out", str(tmp_path)])
    assert code == 0
    table = json.loads((tmp_path / "moments.json").read_text())
    assert set(table) == {"t", "mean", "second_moment", "variance", "laplace"}
    assert len(table["t"]) == 3
    assert all(0.0 < v <= 1.0 for v in table["laplace"])
    assert all(v >= -1e-8 for v in table["variance"])


def test_simulate_paths_csv(mc_param_file, tmp_path):
    _, pfile = mc_param_file
    code = main(["simulate", "--params", pfile, "--k", "4", "--T", "1.0",
                 "--n-paths", "5", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "paths.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["event_type"] for r in rows} <= {"flow-sample", "jump"}
    assert {int(r["path_id"]) for r in rows} == set(range(5))
    for pid in range(5):
        events = [r for r in rows if int(r["path_id"]) == pid]
        assert events[0]["event_type"] == "flow-sample" and float(events[0]["time"]) == 0.0
        assert events[-1]["event_type"] == "flow-sample" and float(events[-1]["time"]) == 1.0
        times = [float(r["time"]) for r in events]
        assert times == sorted(times)


def test_simulate_path_is_terminal_statistics_row(mc_param_file, tmp_path):
    # `simulate` path pid reads the counter stream of row pid of
    # terminal_statistics: same jumps, same terminal state
    _, pfile = mc_param_file
    n = 6
    assert main(["simulate", "--params", pfile, "--k", "4", "--T", "1.0",
                 "--n-paths", str(n), "--seed", "3", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "paths.csv") as fh:
        rows = list(csv.DictReader(fh))
    p_k = truncate(load_params(pfile), 4)
    stats = terminal_statistics(p_k, np.eye(p_k.dim), 1.0, n, seed=3)
    basis = VecBasis(p_k.dim)
    assert stats[:, -1].sum() > 0
    for pid in range(n):
        events = [r for r in rows if int(r["path_id"]) == pid]
        assert sum(r["event_type"] == "jump" for r in events) == stats[pid, -1]
        term = basis.unvec(stats[pid, :-1])
        for i in range(p_k.dim):
            for j in range(i, p_k.dim):
                assert float(events[-1][f"x_{i + 1}{j + 1}"]) == pytest.approx(
                    term[i, j], rel=1e-12, abs=1e-12)


def test_simulate_blocks_match_single_path_runs(mc_param_file, tmp_path):
    # `simulate` runs its paths in lockstep blocks; each path's events are
    # those of PathSimulator.run on the same counter stream, up to the
    # rounding of batched against single-row arithmetic
    _, pfile = mc_param_file
    n = 200
    assert main(["simulate", "--params", pfile, "--k", "4", "--T", "1.0",
                 "--n-paths", str(n), "--seed", "3", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "paths.csv") as fh:
        rows = list(csv.DictReader(fh))
    p_k = truncate(load_params(pfile), 4)
    d = p_k.dim
    sim = PathSimulator(p_k)
    names = [f"x_{i + 1}{j + 1}" for i in range(d) for j in range(i, d)]
    iu = np.triu_indices(d)
    by_path = {}
    for r in rows:
        by_path.setdefault(int(r["path_id"]), []).append(r)
    assert sorted(by_path) == list(range(n))
    jumps = 0
    for pid in range(n):
        path = sim.run(np.eye(d), 1.0, CounterStream(3, pid))
        events = by_path[pid]
        assert [int(r["event_index"]) for r in events] == list(range(path.n_jumps + 2))
        assert [r["event_type"] for r in events] == (
            ["flow-sample"] + ["jump"] * path.n_jumps + ["flow-sample"])
        times = [0.0] + list(path.times) + [1.0]
        states = [np.eye(d)] + list(path.states) + [path.terminal]
        for r, t, state in zip(events, times, states):
            assert float(r["time"]) == pytest.approx(t, rel=1e-12, abs=0.0)
            got = np.array([float(r[c]) for c in names])
            assert np.abs(got - state[iu]).max() <= 1e-12 * np.abs(state).max()
        jumps += path.n_jumps
    assert jumps > n


def test_verify_deterministic_set(tmp_path):
    from affinehs.params import build_admissible
    p = build_admissible(2, beta=-0.4 * np.eye(2), b_extra=0.5 * np.eye(2))
    pfile = tmp_path / "det.json"
    save_params(p, pfile)
    code = main(["verify", "--params", str(pfile), "--T", "1.0", "--k", "1",
                 "--n-paths", "200", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["all_passed"]
    assert all(c["z"] == 0.0 for c in report["checks"])


def test_verify_benchmark_and_fault_injection(mc_param_file, tmp_path):
    _, pfile = mc_param_file
    code = main(["verify", "--params", pfile, "--T", "1.0", "--k", "4",
                 "--n-paths", "4000", "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["all_passed"]
    assert all(abs(c["z"]) <= 3.0 for c in report["checks"])

    code = main(["verify", "--params", pfile, "--T", "1.0", "--k", "4",
                 "--n-paths", "4000", "--seed", "5", "--fault-injection",
                 "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    assert not report["all_passed"]
    assert any(abs(c["z"]) > 3.0 for c in report["checks"])


def test_verify_stage_failures(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("][")
    assert main(["verify", "--params", str(broken), "--out", str(tmp_path)]) == 2

    bad = tmp_path / "inadmissible.json"
    bad.write_text(json.dumps(
        {"dim": 2, "b": sym_to_json(np.diag([-2.0, 1.0])), "B": {}, "m": {}, "mu": {}}))
    assert main(["verify", "--params", str(bad), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["failed_stage"] == "validate"


def test_solve_rejects_a_nonpositive_cone_tolerance(mc_param_file, tmp_path):
    # --tol 0 is a value, not the absent option: it fails as --tol -1 does
    _, pfile = mc_param_file
    for tol in ("0", "-1"):
        out = tmp_path / f"tol{tol}"
        assert main(["solve", "--params", pfile, "--tol", tol, "--out", str(out)]) == 2
        assert not (out / "riccati.csv").exists()


def test_verify_bitwise_across_workers(mc_param_file, tmp_path, pools):
    _, pfile = mc_param_file
    payloads = []
    for w in (1, 4, 8):
        out = tmp_path / f"w{w}"
        code = main(["verify", "--params", pfile, "--T", "1.0", "--k", "4",
                     "--n-paths", "1200", "--seed", "9", "--workers", str(w),
                     "--out", str(out)])
        assert code == 0
        payloads.append((out / "verify.json").read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
    assert pools == [4, 8]


@settings(derandomize=True, max_examples=4, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=admissible_cases())
def test_verify_bitwise_across_workers_on_random_admissible_sets(case, pools):
    p, x, u, v, t = case
    n_pools = len(pools)
    codes, payloads = [], []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_params(p, tmp / "params.json")
        args = ["verify", "--params", str(tmp / "params.json"), "--x0", _write_matrix(tmp / "x.json", x),
                "--u", _write_matrix(tmp / "u.json", u), "--v", _write_matrix(tmp / "v.json", v),
                "--T", repr(t), "--n-paths", "400", "--seed", "5"]
        for w in (1, 2, 4):
            codes.append(main(args + ["--workers", str(w), "--out", str(tmp / f"w{w}")]))
            payloads.append((tmp / f"w{w}" / "verify.json").read_bytes())
    assert codes[0] in (0, 1) and codes == codes[:1] * 3
    assert payloads[0] == payloads[1] == payloads[2]
    assert pools[n_pools:] == [2, 4]


def test_worker_env_cap(mc_param_file, tmp_path, monkeypatch, pools):
    _, pfile = mc_param_file
    monkeypatch.setenv("AFFINEHS_THREADS", "1")
    out = tmp_path / "capped"
    code = main(["verify", "--params", pfile, "--T", "1.0", "--k", "4",
                 "--n-paths", "1200", "--seed", "9", "--workers", "8",
                 "--out", str(out)])
    assert code == 0
    assert pools == []   # capped at one worker: no pool
    ref = tmp_path / "ref"
    monkeypatch.delenv("AFFINEHS_THREADS")
    code = main(["verify", "--params", pfile, "--T", "1.0", "--k", "4",
                 "--n-paths", "1200", "--seed", "9", "--workers", "1",
                 "--out", str(ref)])
    assert code == 0
    assert (out / "verify.json").read_bytes() == (ref / "verify.json").read_bytes()


def test_solve_and_simulate_outputs_reproducible(mc_param_file, tmp_path):
    _, pfile = mc_param_file
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["solve", "--params", pfile, "--T", "1.0", "--k", "4",
                     "--grid", "7", "--out", str(out)]) == 0
        assert main(["simulate", "--params", pfile, "--k", "4", "--T", "1.0",
                     "--n-paths", "20", "--seed", "3", "--out", str(out)]) == 0
        blobs.append((out / "riccati.csv").read_bytes() + (out / "paths.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_csv_report_format(mc_param_file, tmp_path):
    _, pfile = mc_param_file
    code = main(["validate", "--params", pfile, "--out", str(tmp_path),
                 "--format", "csv"])
    assert code == 0
    with open(tmp_path / "admissibility.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["condition"] for r in rows] == ["i_a", "i_b", "ii", "iii", "iv"]
    assert all(r["passed"] == "True" for r in rows)

    code = main(["verify", "--params", pfile, "--T", "0.5", "--k", "4",
                 "--n-paths", "500", "--seed", "2", "--format", "csv",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "verify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["check"] for r in rows] == ["laplace", "mean", "second_moment"]


def test_unknown_subcommand_exit_code():
    assert main(["frobnicate"]) == 2


def test_validate_malformed_sections_exit_input_error(tmp_path):
    from test_params import SECTION_MUTATIONS, section_mutant
    for i, (key, value) in enumerate(SECTION_MUTATIONS):
        pfile = tmp_path / f"mutant{i}.json"
        pfile.write_text(json.dumps(section_mutant(key, value)))
        assert main(["validate", "--params", str(pfile), "--out", str(tmp_path)]) == 2, (key, value)
