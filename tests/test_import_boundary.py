"""No command loads scipy, checked in a fresh interpreter.

pytest has already imported scipy in this process, so each check runs its
commands through ``cabc.cli.main`` in a child process and reports back what
was in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import cabc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cabc.__file__)))

TINY_CFG = ("epochs = 1\nmax_steps = 150\nhidden = 8\ngrad_steps_policy = 5\n"
            "grad_steps_dyn = 5\ngrad_steps_clf = 5\neval_laps = 1\nseed = 5\n")


def _run_child(body: str, tmp_path) -> dict:
    """Run ``body`` with ``cli`` and ``out`` bound; it sets ``result``."""
    (tmp_path / "tiny.cfg").write_text(TINY_CFG)
    code = textwrap.dedent("""
        import json, os, sys
        import cabc.cli as cli
        out = sys.argv[1]
        cfg = os.path.join(out, "tiny.cfg")
        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        result = {}
    """) + textwrap.dedent(body) + "\nprint(json.dumps(result))\n"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bc_eval_sim_report_never_load_scipy(tmp_path):
    result = _run_child("""
        run = os.path.join(out, "bc")
        codes = [
            cli.main(["train", "--method", "bc", "--track", "circle", "--expert", "pid",
                      "--config", cfg, "--out", run, "--checkpoint-every", "0"]),
            cli.main(["eval", "--weights", os.path.join(run, "policy.npz"),
                      "--track", "circle", "--laps", "1", "--config", cfg]),
            cli.main(["sim", "--expert", "pid", "--track", "circle", "--laps", "1",
                      "--config", cfg, "--render", os.path.join(out, "sim.svg")]),
            cli.main(["report", "--run", run, "--out", os.path.join(out, "rep")]),
        ]
        result = {"codes": codes, "scipy": scipy_modules()}
    """, tmp_path)
    assert result["codes"] == [0, 0, 0, 0]
    assert (tmp_path / "rep" / "trajectory_xy.svg").exists()
    assert result["scipy"] == []


LABELING_COMMANDS = {
    "train": ["train", "--method", "ca", "--track", "circle", "--expert", "pid",
              "--config", "{cfg}", "--out", "{out}/ca", "--checkpoint-every", "0"],
    "label_synthetic": ["labeldemo", "--rho", "0.5", "--n", "50", "--grid", "10",
                        "--out", "{out}/demo"],
}


@pytest.mark.parametrize("entry", sorted(LABELING_COMMANDS))
def test_labeling_commands_never_load_scipy(entry, tmp_path):
    """``train --method ca`` and ``labeldemo`` label, and find neighbors in numpy."""
    result = _run_child(f"""
        import cabc.autolabel as autolabel
        import cabc.trainer as trainer
        passes = []
        def counted(inner):
            def member_mask(*args, **kw):
                passes.append(1)
                return inner(*args, **kw)
            return member_mask
        trainer.member_mask = counted(trainer.member_mask)
        autolabel.member_mask = counted(autolabel.member_mask)
        argv = [a.format(cfg=cfg, out=out) for a in {LABELING_COMMANDS[entry]!r}]
        code = cli.main(argv)
        result = {{"code": code, "passes": len(passes), "scipy": scipy_modules()}}
    """, tmp_path)
    assert result["code"] == 0
    assert result["passes"] == 1   # the command ran its labeling pass
    assert result["scipy"] == []
