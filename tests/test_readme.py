"""README.md states the CLI's and the file formats' contract; these tests keep it in step with the code.

Every `evolflow ...` example must parse, every subcommand and option, every
CSV column the handlers write and every curve variant with its JSON keys
must be named in it.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from evolflow import cli, jsonio

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def named(word, text=README) -> bool:
    # word as a whole token: `--s` is not named by `--side`, nor `det` by `det_gauge`
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", text) is not None


def passage(start, end) -> str:
    # the README text from the first `start` up to the next `end`
    head = README.index(start)
    return README[head:README.index(end, head)]


def commands() -> list:
    # every `evolflow ...` line of README's shell blocks
    blocks = re.findall(r"^```sh\n(.*?)^```", README, flags=re.S | re.M)
    return [line for block in blocks for line in block.splitlines() if line.startswith("evolflow ")]


def subparsers() -> dict:
    action = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parse(line) -> argparse.Namespace:
    # a README command line as `evolflow` parses it
    return cli.build_parser().parse_args(cli._fuse_dash_values(shlex.split(line, comments=True)[1:]))


@pytest.mark.parametrize("line", commands())
def test_every_readme_command_parses(line):
    try:
        parse(line)
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")


def test_every_subcommand_and_option_is_named():
    shown = {parse(line).subcommand for line in commands()}
    missing = sorted(set(subparsers()) - shown)
    assert not missing, f"subcommands without a README example: {missing}"
    parsers = {"evolflow": cli.build_parser(), **subparsers()}
    missing = sorted({f"{name} {flag}" for name, parser in parsers.items() for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)
                      for flag in action.option_strings if not named(flag)})
    assert not missing, f"options README does not name: {missing}"


def test_every_csv_column_is_named(tmp_path, capsys):
    def write(name, obj):
        (tmp_path / name).write_text(json.dumps(obj))
        return str(tmp_path / name)

    rotation = write("X.json", {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]})
    eye = write("A.json", {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]})
    curve = write("curve.json", {"variant": "so2"})
    gen = write("gen.json", {"terms": [{"fun": {"kind": "cos"},
                                        "matrix": {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]}}]})
    runs = {
        "markov-semigroup": ["--lambda", "1", "--t", "0:1:0.5"],
        "flow-orbit": ["--generator", rotation, "--base", eye, "--group", "so", "--grid", "0:1:0.5"],
        "curve-eval": ["--curve", curve, "--t", "0:1:0.5"],
        "ode-solve": ["--gen-spec", gen, "--a0", eye, "--T", "0.01", "--h", "0.005"],
    }
    text = passage("CSV outputs:", "\n\n")
    for subcommand, argv in runs.items():
        out = tmp_path / f"{subcommand}.csv"
        assert cli.run([subcommand, *argv, "--out", str(out)]) == 0
        capsys.readouterr()
        header = out.read_text(encoding="utf-8").splitlines()[0].split(",")
        columns = [c for c in header if not re.fullmatch(r"a_\d+_\d+", c)]
        assert columns[0] == "t" and "a_1_1" in header
        missing = [c for c in ["a_1_1", *columns] if not named(c, text)]
        assert not missing, f"{subcommand} writes CSV columns README does not name: {missing}"


def test_every_curve_variant_is_named_with_its_keys():
    # a variant's keys are the backticked names that follow it up to the next variant; variants joined
    # only by commas, slashes or "and" share them ("`heisenberg`, `sl2_iwasawa`: `alpha`, ...")
    text = passage("Curves are a tagged union", "Scalar functions come")
    keys, run, joinable, end = {}, [], False, 0
    for match in re.finditer(r"`([^`]+)`", text):
        token, gap, end = match[1], text[end:match.start()], match.end()
        if token in jsonio.CURVE_VARIANTS:
            run = [*run, token] if joinable and re.fullmatch(r"[\s,/]*(?:and\s*)?", gap) else [token]
            joinable = True
            keys.setdefault(token, set())
        else:
            for variant in run:
                keys[variant].add(token)
            joinable = False
    missing = sorted(set(jsonio.CURVE_VARIANTS) - set(keys))
    assert not missing, f"curve variants README does not name: {missing}"
    missing = sorted(f"{variant} {key}" for variant, (_, codecs) in jsonio.CURVE_VARIANTS.items()
                     for key in codecs if key not in keys[variant])
    assert not missing, f"curve keys README does not name: {missing}"
