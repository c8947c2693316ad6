"""The documents name real things: every backticked ``repro.…`` dotted
name in ARCHITECTURE.md, README.md, DESIGN.md and EXPERIMENTS.md imports
or resolves by ``getattr``, every backticked path under ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` exists, and every
``repro-hepnos`` / ``repro-chaos`` / ``repro-trace`` subcommand or
``--flag`` they show is one the parsers accept.  ``ci.yml`` is held to
the same: the paths its commands name exist, no document names a
``BENCH_*.json`` that is not there or a CI job the workflow does not
have, and every ``benchmarks/bench_*.py`` says in its first line which
clause of the keep-rule (ARCHITECTURE.md) keeps it."""

import ast
import glob
import importlib
import os
import re

import pytest

from repro.tools import chaos_cli, cli, trace_cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("ARCHITECTURE.md", "README.md", "DESIGN.md", "EXPERIMENTS.md")
CI = ".github/workflows/ci.yml"
#: how a kept ``benchmarks/bench_*.py`` begins (the keep-rule's clauses)
LABELS = ("Model study", "Paper ablation (counts)",
          "Parked on benchmark letter (d)")
PARSERS = {
    "repro-hepnos": cli.build_parser,
    "repro-chaos": chaos_cli.build_parser,
    "repro-trace": trace_cli.build_parser,
}

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"``(.+?)``|`([^`]+)`", re.S)
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_PATH = re.compile(r"^(?:src|tests|benchmarks|examples)/[\w./*-]*")
_CI_PATH = re.compile(r"\b(?:tests|benchmarks|examples)/[\w./-]*\w")
_BASELINE = re.compile(r"\bBENCH_\w+\.json")
#: a backticked word called a job: "CI `x`", "`x` job(s)", or a `*-smoke`
_JOB = re.compile(r"\bCI\s+`([\w-]+)`|`([\w-]+)`\s+jobs?\b"
                  r"|`([a-z][\w-]*-smoke)`")


def _read(doc: str) -> str:
    with open(os.path.join(REPO, doc), encoding="utf-8") as handle:
        return handle.read()


def _spans(doc: str) -> list:
    """Inline code spans of ``doc`` (fenced blocks are not spans)."""
    text = _FENCE.sub("", _read(doc))
    return [" ".join((a or b).split()) for a, b in _SPAN.findall(text)]


def _commands(doc: str) -> list:
    """``(line, command, words)`` of every shown invocation of one of
    the three CLIs: a code span or a fenced-block line that starts with
    the command's name.  ``{a, b}`` and ``a | b`` list alternatives."""
    fenced = [line.split("#")[0].strip()
              for block in _FENCE.findall(_read(doc))
              for line in block.splitlines()]
    out = []
    for line in fenced + _spans(doc):
        command, _, rest = line.partition(" ")
        if command in PARSERS:
            out.append((line, command, re.sub(r"[{},|]", " ", rest).split()))
    return out


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


def _subparsers(parser) -> dict:
    for action in parser._actions:
        if isinstance(action.choices, dict):
            return action.choices
    return {}


def _flags(parser) -> set:
    return {flag for action in parser._actions
            for flag in action.option_strings}


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    names = {name for span in _spans(doc) for name in _DOTTED.findall(span)}
    assert names
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"{doc} names what does not import: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_paths_exist(doc):
    missing = []
    for span in _spans(doc):
        match = _PATH.match(span.split("::")[0])
        if match is None:
            continue
        path = match.group(0).rstrip(".")
        if not glob.glob(os.path.join(REPO, path)):
            missing.append(path)
    assert not missing, f"{doc} names paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_cli_subcommands_and_flags_are_accepted(doc):
    refused = []
    for line, command, words in _commands(doc):
        parser = PARSERS[command]()
        subparsers = _subparsers(parser)
        # The first word names a subcommand; in a list of alternatives
        # every word does.
        must = words if re.search(r"[{|]", line) else words[:1]
        refused += [f"{command} {word}" for word in must
                    if subparsers and not word.startswith("-")
                    and word not in subparsers]
        accepted = _flags(parser).union(
            *(_flags(subparsers[word]) for word in words
              if word in subparsers))
        for word in words:
            for flag in word.split("/"):
                flag = flag.split("=")[0].rstrip(".,;:)")
                if flag.startswith("--") and flag not in accepted:
                    refused.append(f"{line!r}: {flag}")
    assert not refused, f"{doc} shows what the parsers refuse: {refused}"


def test_readme_lists_every_subcommand():
    """The README's CLI list is the parser's, not a memory of it."""
    shown = {word for _, command, words in _commands("README.md")
             if command == "repro-hepnos" for word in words}
    assert set(_subparsers(cli.build_parser())) <= shown


def test_ci_paths_exist():
    missing = sorted(path for path in set(_CI_PATH.findall(_read(CI)))
                     if not os.path.exists(os.path.join(REPO, path)))
    assert not missing, f"{CI} runs what does not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS + (CI,))
def test_named_baselines_exist(doc):
    missing = sorted(name for name in set(_BASELINE.findall(_read(doc)))
                     if not os.path.exists(os.path.join(REPO, name)))
    assert not missing, f"{doc} names baselines that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_named_ci_jobs_exist(doc):
    workflow = _read(CI)
    jobs = set(re.findall(r"^  ([\w-]+):$",
                          workflow[workflow.index("\njobs:"):], re.M))
    named = {name for groups in _JOB.findall(_FENCE.sub("", _read(doc)))
             for name in groups if name}
    assert named <= jobs, f"{doc} names CI jobs {sorted(named - jobs)}"


def test_every_bench_says_why_it_stays():
    unlabelled = [
        path for path in sorted(glob.glob("benchmarks/bench_*.py",
                                          root_dir=REPO))
        if not (ast.get_docstring(ast.parse(_read(path))) or "")
        .startswith(LABELS)]
    assert not unlabelled, (
        f"no keep-rule label {LABELS} opens the docstring of: {unlabelled}")
