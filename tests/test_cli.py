import json

import pytest

from conftest import FIXTURES, fixture_path
from ptasynth.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_json_schema(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "synth", "--model",
                         str(fixture_path("gap.pta")),
                         "--ltl", "G !inB", "--engine", "symbolic",
                         "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"satisfying", "violating", "deadlock", "stats"}
        assert doc["violating"] == [{"p": 0}, {"p": 1}, {"p": 2}, {"p": 3}]
        assert doc["stats"]["engine"] == "symbolic"

    def test_enumerate_engine(self, capsys):
        code, out, _ = run(capsys, "synth", "--model",
                           str(fixture_path("gap.pta")),
                           "--ltl", "G !inB", "--engine", "enumerate")
        assert code == 0
        doc = json.loads(out)
        assert doc["stats"]["engine"] == "enumerate"

    def test_byte_stable(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run(capsys, "synth", "--model",
                             str(fixture_path("window.pta")),
                             "--ltl", "G (idle -> F work)",
                             "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_byte_stable_across_processes(self, tmp_path):
        import os
        import subprocess
        import sys

        outs = []
        for seed in ("13", "9999"):
            out = tmp_path / f"s{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "ptasynth.cli", "synth",
                 "--model", str(fixture_path("gap.pta")),
                 "--ltl", "G !inB", "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_param_override(self, capsys):
        code, out, _ = run(capsys, "synth", "--model",
                           str(fixture_path("gap.pta")),
                           "--ltl", "G !inB", "--param", "p=4..5")
        assert code == 0
        doc = json.loads(out)
        assert doc["violating"] == []
        assert doc["satisfying"] == [{"p": 4}, {"p": 5}]

    def test_bad_param_flag(self, capsys):
        code, _, err = run(capsys, "synth", "--model",
                           str(fixture_path("gap.pta")),
                           "--ltl", "G !inB", "--param", "p=zzz")
        assert code == 2

    def test_unknown_atom(self, capsys):
        code, _, err = run(capsys, "synth", "--model",
                           str(fixture_path("gap.pta")), "--ltl", "G !nope")
        assert code == 2
        assert "unknown-atom" in err

    def test_first_bad_atom_across_hash_seeds(self):
        # the property names the unknown atom inB before the unknown
        # variable c; the error reports inB whatever the hash seed
        import os
        import subprocess
        import sys

        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "ptasynth.cli", "synth",
                 "--model", str(fixture_path("deadfold.pta")),
                 "--ltl", "G (inB -> c <= 0)"],
                env=dict(os.environ, PYTHONHASHSEED=seed),
                capture_output=True, text=True)
            assert proc.returncode == 2, seed
            assert proc.stderr.startswith("error (unknown-atom): "), seed
            assert proc.stderr.rstrip().endswith("'inB'"), seed

    def test_no_check_is_a_usage_error(self, capsys):
        # the soundness checks always run; there is no switch to skip them
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--model", str(fixture_path("gap.pta")),
                  "--ltl", "G !inB", "--no-check"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-check" in capsys.readouterr().err

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(capsys, "synth", "--model",
                           str(fixture_path("gap.pta")),
                           "--ltl", "G !inB", "--limit-states", "2")
        assert code == 3

    def test_limit_states_below_one(self, capsys):
        code, _, err = run(capsys, "synth", "--model",
                           str(fixture_path("gap.pta")),
                           "--ltl", "G !inB", "--limit-states", "0")
        assert code == 2
        assert "error (bad-flag)" in err

    def test_limit_dnf_below_one(self, capsys):
        code, _, err = run(capsys, "synth", "--model",
                           str(fixture_path("gap.pta")),
                           "--ltl", "G !inB", "--limit-dnf", "0")
        assert code == 2
        assert "error (bad-flag)" in err

    def test_soundness_exit_code(self, capsys, monkeypatch):
        import ptasynth.cli as cli
        from ptasynth.errors import SoundnessError

        def broken(net, prop, box=None, opts=None):
            raise SoundnessError("cycle states do not share one valuation "
                                 "set")

        monkeypatch.setattr(cli, "synthesize", broken)
        code, out, err = run(capsys, "synth", "--model",
                             str(fixture_path("gap.pta")), "--ltl", "G !inB")
        assert code == 4
        assert out == ""
        assert err == ("soundness: cycle states do not share one valuation "
                       "set\n")

    def test_stats_flag(self, capsys):
        code, _, err = run(capsys, "synth", "--model",
                           str(fixture_path("gap.pta")),
                           "--ltl", "G !inB", "--stats")
        assert code == 0
        assert "stored_states" in err
        assert '"expansions"' in err


class TestCompare:
    def test_fixture_agrees(self, capsys):
        code, out, _ = run(capsys, "compare", "--model",
                           str(fixture_path("urgent.pta")),
                           "--ltl", "G !inC")
        assert code == 0
        doc = json.loads(out)
        assert doc["equal"] is True
        assert doc["stats"]["state_ratio"] > 0

    def test_bound_range(self, capsys):
        # q = 2^38 - 1 is the largest encodable bound; 2^38 and beyond
        # are rejected as input before either engine runs
        for q, want in ((2 ** 38 - 1, 0), (2 ** 38, 2), (2 ** 62, 2)):
            code, out, err = run(capsys, "compare", "--model",
                                 str(fixture_path("window.pta")),
                                 "--ltl", "G !work", "--param", "p=2..2",
                                 "--param", f"q={q}..{q}")
            assert code == want, err
            if want == 0:
                assert json.loads(out)["equal"] is True
            else:
                assert err.startswith("error (bound-range):")

    def test_mismatch_would_exit_one(self, capsys, tmp_path, monkeypatch):
        # force a disagreement by patching the enumeration result
        import ptasynth.cli as cli
        from ptasynth.params import ValuationSet

        real = cli.enumerate_box

        def skewed(net, prop, box=None, opts=None):
            res = real(net, prop, box, opts)
            res.accepted = ValuationSet(res.box,
                                        res.accepted.bits ^ 1)
            return res

        monkeypatch.setattr(cli, "enumerate_box", skewed)
        code, out, _ = run(capsys, "compare", "--model",
                           str(fixture_path("gap.pta")), "--ltl", "G !inB")
        assert code == 1
        doc = json.loads(out)
        assert doc["equal"] is False and "diffs" in doc

    def test_negative_constants_in_properties(self, capsys, tmp_path):
        model = tmp_path / "neg.pta"
        model.write_text("""
param p = 0..2
clock x
var w : -2..2 = -1
component M {
  location A { invariant x <= p }
  location B { invariant true }
  init A
  edge A -> B { guard x >= 1; update w := w + 1 }
}
""")
        for prop in ("F w == -1", "G w >= -2"):
            code, out, err = run(capsys, "compare", "--model", str(model),
                                 "--ltl", prop)
            assert code == 0, err
            assert json.loads(out)["equal"] is True


BIG = 10 ** 20  # outside int64


class TestCrashInputs:
    """Inputs that once crashed with a traceback (exit 1, the code of a
    mismatch in compare): each is bad input, one ``error (...)`` line and
    exit 2.  ``{tmp}/bad.pta`` is a file that is not UTF-8,
    ``{tmp}/big.pta`` a model with a parameter range outside int64 that
    no bound reads."""

    @pytest.mark.parametrize("argv, kind", [
        (["synth", "--model", "{fix}/traingate.pta",
          "--ltl", "!" * 3000 + "Train1.Cross"], "ltl-syntax"),
        (["compare", "--model", "{fix}/window.pta",
          "--ltl", "(" * 400 + "work" + ")" * 400], "ltl-syntax"),
        (["dump-ba", "--ltl",
          "G (" + " && ".join(f"a{i}" for i in range(450)) + ")"],
         "ltl-syntax"),
        (["validate", "--model", "{tmp}/bad.pta"], "model-syntax"),
        (["synth", "--model", "{tmp}/big.pta", "--ltl", "true"],
         "bound-range"),
        (["synth", "--model", "{fix}/gap.pta", "--ltl", "true",
          "--param", f"p=-{BIG}..-{BIG}"], "bound-range"),
    ], ids=["negations", "parentheses", "conjuncts", "not-utf8",
            "model-range", "param-range"])
    def test_exits_two(self, capsys, tmp_path, argv, kind):
        (tmp_path / "bad.pta").write_bytes(b"\xff\xfe\x00bad")
        (tmp_path / "big.pta").write_text(
            f"param p = {BIG}..{BIG}\nclock x\n"
            "component C {\n  location A { invariant true }\n  init A\n}\n")
        code, _, err = run(capsys, *(w.format(tmp=tmp_path, fix=FIXTURES)
                                     for w in argv))
        assert code == 2
        assert err.startswith(f"error ({kind}): ")
        assert err.count("\n") == 1

    def test_wide_property_still_runs(self):
        # 300 conjuncts stay within the translation's recursion; in a
        # process of its own, as from the command line
        import subprocess
        import sys

        prop = "G (" + " && ".join(["work"] * 300) + ")"
        proc = subprocess.run(
            [sys.executable, "-m", "ptasynth.cli", "synth",
             "--model", str(fixture_path("window.pta")), "--ltl", prop],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["violating"]


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "--model",
                           str(fixture_path("traingate.pta")))
        assert code == 0
        assert "3 components" in out

    def test_box_cap_ignores_environment(self):
        """The box cap is a constant: no environment variable can break
        the import that every command runs."""
        import os
        import subprocess
        import sys

        env = dict(os.environ, PTASYNTH_MAX_BOX_POINTS="lots")
        proc = subprocess.run(
            [sys.executable, "-m", "ptasynth.cli", "validate",
             "--model", str(fixture_path("traingate.pta"))],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "3 components" in proc.stdout

    def test_simple_guard_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.pta"
        bad.write_text("""
clock x y
component M {
  location A { invariant true }
  location B { invariant true }
  init A
  edge A -> B { guard x - y <= 3 }
}
""")
        code, _, err = run(capsys, "validate", "--model", str(bad))
        assert code == 2
        assert "non-simple-guard" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "validate", "--model", "/nonexistent.pta")
        assert code == 2


class TestDumps:
    def test_dump_ba(self, capsys):
        code, out, _ = run(capsys, "dump-ba", "--ltl", "G safe")
        assert code == 0
        assert out.startswith("states:")

    def test_dump_product(self, capsys):
        code, out, _ = run(capsys, "dump-product", "--model",
                           str(fixture_path("gap.pta")), "--ltl", "G !inB")
        assert code == 0
        assert "clock maxima:" in out
        assert "location" in out

    def test_flags_a_subcommand_does_not_read(self, capsys):
        # dump-product takes the input flags only, and the dumps are their
        # own subcommands, so synth stdout stays one JSON document
        for argv in (("dump-product", "--stats"),
                     ("dump-product", "--limit-states", "0"),
                     ("synth", "--dump-ba")):
            with pytest.raises(SystemExit) as exc:
                main([argv[0], "--model", str(fixture_path("gap.pta")),
                      "--ltl", "G !inB", *argv[1:]])
            assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
