"""The documents name real things: every backticked ``repro.…`` dotted
name in ARCHITECTURE.md, README.md, DESIGN.md and EXPERIMENTS.md imports
or resolves by ``getattr``, every backticked path under ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` exists, every backticked
test id (``tests/x.py::A::b``, and a ``::c`` written after one) names a
class or function of that file, and every ``repro-hepnos`` /
``repro-chaos`` / ``repro-trace`` subcommand or ``--flag`` they show is
one the parsers accept.  ``ci.yml`` is held to the same: the paths its
commands name exist, no document names a ``BENCH_*.json`` that is not
there or a CI job the workflow does not have, and every
``benchmarks/bench_*.py`` says in its first line which clause of the
keep-rule (ARCHITECTURE.md) keeps it.

A figure -- a number with a unit -- in ARCHITECTURE.md, README.md or
DESIGN.md shares its paragraph or table row with what owns it: a
declared metric name, a test id that resolves, a ``repro.…`` constant
that resolves, or the ``benchmarks/bench_fig*.py`` model study that
asserts a paper figure.  A figure nothing owns goes stale silently."""

import ast
import glob
import importlib
import inspect
import json
import os
import re

import pytest

from repro.tools import chaos_cli, cli, trace_cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("ARCHITECTURE.md", "README.md", "DESIGN.md", "EXPERIMENTS.md")
#: the documents whose figures must each have an owner
FIGURE_DOCS = ("ARCHITECTURE.md", "README.md", "DESIGN.md")
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
#: a number with a unit, outside a word ("1.0×", "~4 KiB", "305 B")
_FIGURE = re.compile(
    r"(?<![\w.])[~≈]?\d[\d,]*(?:\.\d+)?\s?"
    r"(?:[µμ]s|ns|ms|s|%|×|KiB|MiB|MB|B|events/s|RPCs?)(?![\w/])")
_MODEL_STUDY = re.compile(r"benchmarks/bench_fig\w*\.py")


def _read(doc: str) -> str:
    with open(os.path.join(REPO, doc), encoding="utf-8") as handle:
        return handle.read()


def _code_spans(text: str) -> list:
    return [" ".join((a or b).split()) for a, b in _SPAN.findall(text)]


def _spans(doc: str) -> list:
    """Inline code spans of ``doc`` (fenced blocks are not spans)."""
    return _code_spans(_FENCE.sub("", _read(doc)))


def _units(doc: str) -> list:
    """The paragraphs and table rows of ``doc`` outside fenced blocks."""
    units = []
    for block in re.split(r"\n\s*\n", _FENCE.sub("", _read(doc))):
        lines = block.splitlines()
        units += [line for line in lines if line.lstrip().startswith("|")]
        units.append("\n".join(line for line in lines
                               if not line.lstrip().startswith("|")))
    return [unit for unit in units if unit.strip()]


def _metric_names() -> set:
    """What ``BENCHMARK.json`` declares plus ``metrics.END_TO_END``."""
    declared = json.loads(_read("BENCHMARK.json"))
    names = {metric["name"] for section in ("end_to_end", "per_layer")
             for metric in declared[section]}
    for node in ast.parse(_read("benchmarks/e2e/metrics.py")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", "") == "END_TO_END"
                        for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def _defines(path: str, parts: list) -> bool:
    """``path`` is a file that defines the class / function chain
    ``parts`` (a parametrised id's ``[...]`` is not part of the name)."""
    if not os.path.isfile(os.path.join(REPO, path)):
        return False
    scope = ast.parse(_read(path)).body
    for part in parts:
        name = part.split("[")[0]
        node = next((n for n in scope
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def _test_ids(spans: list) -> list:
    """``(span, resolves)`` for every test id among ``spans``: a
    ``tests/…py::A::b`` span, or a ``::c`` continuation, which names a
    child or sibling of the last full id's parts, or a module-level
    name of its file."""
    out, last = [], None
    for span in spans:
        if span.startswith("tests/") and "::" in span:
            path, *parts = span.split("::")
            last = (path, parts)
            out.append((span, _defines(path, parts)))
        elif re.match(r"::\w", span):
            path, parents = last or ("", [])
            parts = span[2:].split("::")
            out.append((span, any(_defines(path, parents[:cut] + parts)
                                  for cut in range(len(parents) + 1))))
    return out


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


_MISSING = object()


def _lookup(dotted: str):
    """What ``dotted`` names, or ``_MISSING``."""
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
            return _MISSING
        return target
    return _MISSING


def _resolves(dotted: str) -> bool:
    return _lookup(dotted) is not _MISSING


def _is_constant(dotted: str) -> bool:
    """``dotted`` names a value -- not a module, a class or a function."""
    target = _lookup(dotted)
    return (target is not _MISSING and not callable(target)
            and not inspect.ismodule(target))


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
def test_named_test_ids_exist(doc):
    missing = [span for span, resolves in _test_ids(_spans(doc))
               if not resolves]
    assert not missing, f"{doc} names tests that do not exist: {missing}"


def _owns(span: str, metrics: set) -> bool:
    if span in metrics:
        return True
    if span.startswith("tests/") and "::" in span:
        return _test_ids([span])[0][1]
    if _DOTTED.fullmatch(span):
        return _is_constant(span)
    return (_MODEL_STUDY.fullmatch(span) is not None
            and os.path.isfile(os.path.join(REPO, span)))


@pytest.mark.parametrize("doc", FIGURE_DOCS)
def test_figures_have_owners(doc):
    metrics = _metric_names()
    orphans = []
    for unit in _units(doc):
        figures = _FIGURE.findall(unit)
        if figures and not any(_owns(span, metrics)
                               for span in _code_spans(unit)):
            orphans.append(f"{figures} in {' '.join(unit.split())[:80]!r}")
    assert not orphans, (
        f"{doc} quotes figures no metric, test id or constant owns: "
        f"{orphans}")


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
