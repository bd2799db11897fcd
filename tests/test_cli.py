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

    def test_repeated_param_flag(self, capsys):
        code, out, err = run(capsys, "synth", "--model",
                             str(fixture_path("traingate.pta")),
                             "--ltl", "G !(Train1.Cross && Train2.Cross)",
                             "--param", "p1=0..1", "--param", "p1=2..2")
        assert (code, out) == (2, "")
        assert err == "error (bad-flag): --param p1 given more than once\n"

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

    @pytest.mark.parametrize("engine", ["symbolic", "enumerate"])
    def test_time_limit_zero_is_capacity(self, capsys, engine):
        code, out, err = run(capsys, "synth", "--model",
                             str(fixture_path("gap.pta")), "--ltl", "G !inB",
                             "--engine", engine, "--time-limit", "0")
        assert code == 3
        assert out == ""
        assert err.startswith("capacity: time limit")

    def test_time_limit_generous_is_the_same_document(self, capsys):
        argv = ["synth", "--model", str(fixture_path("window.pta")),
                "--ltl", "G (idle -> F work)"]
        plain = run(capsys, *argv)
        assert run(capsys, *argv, "--time-limit", "600") == plain

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_time_limit_below_zero(self, capsys, value):
        code, _, err = run(capsys, "compare", "--model",
                           str(fixture_path("gap.pta")), "--ltl", "G !inB",
                           "--time-limit", value)
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

    def test_trace_needs_the_symbolic_engine(self, capsys):
        # only the symbolic engine expands nodes; enumerate would run and
        # drop the flag without a word
        code, out, err = run(capsys, "synth", "--model",
                             str(fixture_path("gap.pta")), "--ltl", "G !inB",
                             "--engine", "enumerate", "--trace")
        assert (code, out) == (2, "")
        assert err.startswith("error (bad-flag): ")
        assert err.count("\n") == 1
        # compare runs the symbolic engine too, and traces it
        code, _, err = run(capsys, "compare", "--model",
                           str(fixture_path("gap.pta")), "--ltl", "G !inB",
                           "--trace")
        assert code == 0
        assert err.startswith("state 0: ")

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

    def test_parameter_guard_agrees(self, capsys):
        # a guard atom with no real clock constrains the parameters alone
        code, out, err = run(capsys, "compare", "--model",
                             str(fixture_path("paramguard.pta")),
                             "--ltl", "G true")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["equal"] is True
        assert doc["deadlock"] == [{"p": p} for p in range(5)]

    def test_valuation_without_initial_state(self, capsys, tmp_path):
        # at p = 0 the initial invariant x <= -1 fails, so there is no
        # initial state and no run: both engines count p = 0 as
        # satisfying every property and as free of deadlock
        model = tmp_path / "m.pta"
        model.write_text("param p = 0..2\nclock x\ncomponent C {\n"
                         "  location L { invariant x <= p - 1; label l }\n"
                         "  init L\n}\n")
        code, out, err = run(capsys, "compare", "--model", str(model),
                             "--ltl", "F !l")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["equal"] is True
        assert doc["satisfying"] == [{"p": 0}, {"p": 1}, {"p": 2}]
        assert doc["deadlock"] == [{"p": 1}, {"p": 2}]

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
        (["validate", "--model", "{tmp}/bad.pta"], "model-syntax"),
        (["synth", "--model", "{tmp}/big.pta", "--ltl", "true"],
         "bound-range"),
        (["synth", "--model", "{fix}/gap.pta", "--ltl", "true",
          "--param", f"p=-{BIG}..-{BIG}"], "bound-range"),
        (["synth", "--model", "{fix}/gap.pta", "--ltl", "true",
          "--param", "p=5..3"], "empty-range"),
    ], ids=["negations", "parentheses", "not-utf8", "model-range",
            "param-range", "param-empty"])
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

    # models that once parsed with a declaration or a singular clause
    # silently replaced or doubled, or with a name list that names nothing,
    # or whose error pointed past an unknown keyword or the component that
    # lacks an init; the error names the second declaration, the second
    # clause keyword, the keyword of the empty list, the unknown keyword or
    # the component
    @pytest.mark.parametrize("text, kind, pos", [
        ("clock x\ncomponent C {\n  location A { invariant x <= 1 }\n"
         "  location A { invariant true }\n  init A\n}\n",
         "model-syntax", (4, 11)),
        ("var w : 0..1 = 0\nvar w : 0..3 = 2\n", "model-syntax", (2, 4)),
        ("clock x x\n", "model-syntax", (1, 8)),
        ("clock x\ncomponent A {\n  location L\n  init L\n}\n"
         "component A {\n  location L\n  init L\n}\n", "model-syntax", (6, 10)),
        ("param p = 0..2\nclock p\n", "model-syntax", (2, 6)),
        ("chan go\nvar go : 0..1 = 0\n", "model-syntax", (2, 4)),
        ("param p = 0..1\nparam p = 0..2\n", "model-syntax", (2, 6)),
        ("param p = 3..1\n", "empty-range", (1, 10)),
        ("var w : 3..1 = 2\n", "empty-range", (1, 8)),
        ("param p = 0..3\nclock x\ncomponent C {\n  location L\n"
         "  location M\n  init L\n"
         "  edge L -> M { guard x >= 1; guard x <= p; reset x }\n}\n",
         "model-syntax", (7, 30)),
        ("param p = 0..3\nclock x\ncomponent C {\n"
         "  location L { invariant x <= 5; invariant x <= p }\n"
         "  init L\n}\n", "model-syntax", (4, 33)),
        ("clock x\ncomponent C {\n  location L\n  location M\n  init L\n"
         "  init M\n}\n", "model-syntax", (6, 2)),
        ("clock x\nchan a b\ncomponent C {\n  location L\n  init L\n"
         "  edge L -> L { sync a!; sync b! }\n}\n", "model-syntax", (6, 25)),
        ("clock x\ncomponent C {\n  location L { bogus x }\n  init L\n}\n",
         "model-syntax", (3, 15)),
        ("clock x\ncomponent C {\n  location L\n  init L\n  wibble\n}\n",
         "model-syntax", (5, 2)),
        ("clock x\ncomponent C {\n  location L { invariant true; label }\n"
         "  init L\n}\n", "model-syntax", (3, 31)),
        ("clock x\ncomponent C {\n  location L\n  init L\n"
         "  edge L -> L { guard true; reset }\n}\n", "model-syntax", (5, 28)),
        ("clock\n", "model-syntax", (1, 0)),
        ("chan\n", "model-syntax", (1, 0)),
        ("clock x\ncomponent C {\n  location L\n}\n", "model-syntax", (2, 10)),
    ], ids=["location", "variable", "clock", "component", "param-clock",
            "channel-variable", "parameter", "param-empty", "var-empty",
            "second-guard", "second-invariant", "second-init", "second-sync",
            "location-keyword", "component-keyword", "empty-label",
            "empty-reset", "empty-clock", "empty-chan", "missing-init"])
    def test_declarations_exit_two(self, capsys, tmp_path, text, kind, pos):
        model = tmp_path / "m.pta"
        model.write_text(text + "clock y\ncomponent M {\n  location A\n"
                         "  init A\n}\n")
        code, _, err = run(capsys, "validate", "--model", str(model))
        assert code == 2
        assert err.startswith(f"error ({kind}): line {pos[0]}, "
                              f"column {pos[1]}: ")
        assert err.count("\n") == 1

    def test_wide_property_still_runs(self):
        # the width of a property is not a stack limit: the translation
        # keeps its own stacks.  In a process of its own, as from the
        # command line
        import subprocess
        import sys

        prop = "G (" + " && ".join(["work"] * 300) + ")"
        proc = subprocess.run(
            [sys.executable, "-m", "ptasynth.cli", "synth",
             "--model", str(fixture_path("window.pta")), "--ltl", prop],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["violating"]

    def test_distinct_conjuncts_translate(self, capsys):
        # a wide property is not bad input: the translation keeps its own
        # stacks.  The negation waits, violates one conjunct and then
        # accepts anything: the tableau has the initial and the waiting
        # state, one state per conjunct and the accepting sink (453), and
        # its quotient the waiting state, with one transition per conjunct
        # into the accepting sink
        prop = "G (" + " && ".join(f"a{i}" for i in range(450)) + ")"
        code, out, err = run(capsys, "dump-ba", "--ltl", prop)
        assert (code, err) == (0, "")
        assert out.startswith("states: 2\n")
        assert sorted(line for line in out.splitlines()
                      if line.endswith("-> 1")) == \
            sorted(f"0 -- !a{i} -> 1" for i in range(450)) + ["1 -- true -> 1"]


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

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        # a UTF-8 file may start with a byte-order mark
        bom = tmp_path / "gap.pta"
        bom.write_bytes(b"\xef\xbb\xbf" + fixture_path("gap.pta").read_bytes())
        for argv in (["validate"], ["synth", "--ltl", "G !inB"]):
            got = [run(capsys, *argv, "--model", str(path))
                   for path in (bom, fixture_path("gap.pta"))]
            assert got[0] == got[1]
            assert got[0][0] == 0

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
