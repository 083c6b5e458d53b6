"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import unitred
import unitred.errors as errors
import unitred.realfield as realfield
import unitred.svp as svp
import unitred.units as units
import unitred.witness as witness


def test_library_has_no_assert_statements():
    # python -O strips assert, and a certificate check must never vanish;
    # integrity checks raise VerificationError or ValueError instead
    modules = sorted(Path(unitred.__file__).parent.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_library_has_no_float_code():
    # every verdict rests on integers and Fractions: no cmath import, no
    # float() call and no float or complex literal anywhere in the package
    modules = sorted(Path(unitred.__file__).parent.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bad = any(alias.name == "cmath" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = node.module == "cmath"
            elif isinstance(node, ast.Call):
                bad = isinstance(node.func, ast.Name) and node.func.id == "float"
            elif isinstance(node, ast.Constant):
                bad = isinstance(node.value, (float, complex))
            else:
                continue
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_library_imports_only_what_it_uses():
    # every module-level import is referenced in its module; __init__.py
    # imports in order to re-export, so it is left out
    modules = sorted(
        path for path in Path(unitred.__file__).parent.rglob("*.py") if path.name != "__init__.py"
    )
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert found == []


def test_library_has_no_dead_helpers():
    # every module-level function and class is named somewhere in the package
    # outside its own definition, or is exported in unitred.__all__
    modules = sorted(Path(unitred.__file__).parent.glob("*.py"))
    assert modules
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in modules]

    def named(node):
        return Counter(
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        )

    everywhere = sum(map(named, trees), Counter())
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in zip(modules, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in unitred.__all__
        and everywhere[node.name] == named(node)[node.name]
    ]
    assert found == []


def test_every_error_class_is_raised_or_subclassed():
    # an exception type that nothing in the package raises is dead public API:
    # each class of unitred.errors is constructed (svp builds its BudgetError
    # in a helper, then raises it), raised by name, or a base of another class
    modules = sorted(Path(unitred.__file__).parent.glob("*.py"))
    used = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                names = [node.func]
            elif isinstance(node, ast.Raise):
                names = [node.exc]
            elif isinstance(node, ast.ClassDef):
                names = node.bases
            else:
                continue
            used |= {sub.id for sub in names if isinstance(sub, ast.Name)}
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert "UnitRedError" in classes
    assert sorted(classes - used) == []


def test_only_the_cli_catches_budget_error():
    # one budget path: every scan, witness checks included, lets BudgetError
    # reach cli.run, which reports the counts on stderr and exits 3; a
    # library catch would turn the stop into a second kind of result
    catchers = []
    for path in sorted(Path(unitred.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    names = {
                        sub.id if isinstance(sub, ast.Name) else sub.attr
                        for sub in ast.walk(node.type)
                        if isinstance(sub, (ast.Name, ast.Attribute))
                    }
                    if "BudgetError" in names:
                        catchers.append(f"{path.name}:{func.name}")
    assert catchers == ["cli.py:run"]


def test_bench_files_name_both_commits_and_every_workload():
    # each performance change commits bench/BENCH_<label>.json: the perfbench
    # medians and quartiles of the parent and of the change, per workload
    root = Path(__file__).resolve().parents[1]
    workloads = {w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    assert workloads == {"witness", "forms", "sweep", "identities"}
    files = sorted((root / "bench").glob("BENCH_*.json"))
    assert files
    for path in files:
        data = json.loads(path.read_text(encoding="utf-8"))
        shas = (data["parent_sha"], data["change_sha"])
        assert all(re.fullmatch(r"[0-9a-f]{40}", sha) for sha in shas), path.name
        assert shas[0] != shas[1], path.name
        assert set(data["workloads"]) == workloads, path.name
        for name, w in data["workloads"].items():
            assert w["pairs"] == len(w["seeds"]) > 0, (path.name, name)
            for metric in ("setup_s", "wall_s", "peak_rss_mb"):
                for side in ("parent", "change"):
                    q = w["metrics"][metric][side]
                    assert q["q1"] <= q["median"] <= q["q3"], (path.name, name, metric, side)


def test_parameters_are_the_ones_callers_set():
    # node_cap is what --budget sets and force what the benchmark sets; the
    # Lovasz constant, the attaining-list cap and the result cap are fixed
    expected = {
        svp.lll_reduce: ["g"],
        svp.shortest: ["g", "node_cap"],
        units.mu_star: ["a", "node_cap"],
        units.is_reduced: ["a", "node_cap"],
        witness._certify: ["a", "big_n", "trace_cf", "node_cap", "force", "what"],
        witness.verify_witness: ["big_n", "node_cap", "force"],
        realfield.verify_real_witness: ["big_n", "node_cap", "force"],
        realfield.real_mu_relations_check: ["a"],
    }
    got = {f: list(inspect.signature(f).parameters) for f in expected}
    assert got == expected


def test_bench_pairs_run_pair_by_pair_across_workloads():
    # a burst of load from other jobs should land on one pair of each
    # workload, not on consecutive pairs of one: pair i of every workload
    # runs, both sides, before pair i + 1, odd pairs with the parent first
    path = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    order = pairs.run_order(["witness", "forms"])
    assert order[:8] == [
        (1, "witness", "parent"), (1, "witness", "change"),
        (1, "forms", "parent"), (1, "forms", "change"),
        (2, "witness", "change"), (2, "witness", "parent"),
        (2, "forms", "change"), (2, "forms", "parent"),
    ]
    assert len(order) == len(set(order)) == 2 * 2 * pairs.PAIRS == 40
    assert [i for i, _, _ in order] == sorted(i for i, _, _ in order)


def test_traced_names_resolve():
    # perfbench/tracer.py wraps each LAYERS entry by reading it from its
    # module's own __dict__, or from its class's: a rename, a move, or a
    # method a class only inherits breaks --trace 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.LAYERS) == 25
    missing = []
    for mod_name, owner, attr in tracer.LAYERS:
        holder = vars(importlib.import_module(mod_name))
        if owner is not None:
            holder = vars(holder.get(owner, object))
        if not callable(holder.get(attr)):
            missing.append(f"{mod_name}:{owner}.{attr}")
    assert missing == []
