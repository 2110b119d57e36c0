"""Tests for the package's public name list."""

import ast
import inspect
from pathlib import Path

import palab


def test_all_matches_package_imports():
    # __all__ is exactly what palab/__init__.py imports from its modules,
    # sorted and without repeats, so a deleted name cannot linger in it
    tree = ast.parse(inspect.getsource(palab))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert palab.__all__ == sorted(palab.__all__)
    assert len(set(palab.__all__)) == len(palab.__all__)
    assert set(palab.__all__) == set(imported)
    for name in palab.__all__:
        assert getattr(palab, name) is not None


def test_principal_n_builds_no_model():
    # the n-agent layer prices the models and the limit value it is given:
    # it imports neither the limit-problem module nor a built-in model builder
    import palab.principal_n as principal_n

    builders = {"multitask_model", "quadratic_generic_model"}
    tree = ast.parse(inspect.getsource(principal_n))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name for alias in node.names}
            modules = {node.module or ""} if isinstance(node, ast.ImportFrom) else names
            assert not any("mkv_control" in m for m in modules), ast.unparse(node)
            assert not builders & names, ast.unparse(node)


def test_only_sde_engine_reads_the_stream():
    # the limit problem and the contract pass take their initial states and
    # increments from sde_engine, so only it knows the stream layout
    import palab.contracts as contracts
    import palab.mkv_control as mkv_control
    import palab.sde_engine as sde_engine

    for module in (mkv_control, contracts):
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"standard_normal", "generator"}, (
                    f"{module.__name__}: {ast.unparse(node)}"
                )

    # within sde_engine, one function reads every stream
    readers = set()
    for top in ast.parse(inspect.getsource(sde_engine)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in {"standard_normal", "generator"}:
                    readers.add(getattr(top, "name", "<module>"))
    assert readers == {"_replication_chunks"}


def test_only_sde_engine_takes_a_seed_apart():
    # a stream is one SeedSpec, handed to sde_engine as it is: no other
    # library module reads a seed's master seed or spawn-key prefix, or
    # builds a SeedSpec. cli builds the experiment's seeds and is exempt.
    found = []
    for path in sorted(Path(palab.__file__).parent.glob("*.py")):
        if path.stem in {"sde_engine", "cli"}:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            reads = isinstance(node, ast.Attribute) and node.attr in {"prefix", "master_seed"}
            builds = isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "SeedSpec"
            if reads or builds:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_only_model_evaluates_a_node():
    # sigma, z/sigma and the maximizer of a node come from model._node, so
    # the simulating layers neither read the volatility nor rebuild the node
    # from its parts
    import palab.contracts as contracts
    import palab.mkv_control as mkv_control
    import palab.principal_n as principal_n
    import palab.sde_engine as sde_engine

    node_parts = {"slope_over_sigma", "maximize_hamiltonian"}
    for module in (sde_engine, contracts, mkv_control, principal_n):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert not node_parts & names, f"{module.__name__}: {ast.unparse(node)}"
            if isinstance(node, ast.Attribute):
                assert node.attr != "vol_sigma", f"{module.__name__}: {ast.unparse(node)}"


def _callers(name):
    """module.function of every call in src/palab whose callee's last name is `name`."""
    callers = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name:
            callers.append(f"{module}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(palab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return callers


def test_only_contracts_g_inverse_calls_g_inverse():
    # every payment is priced through contracts._g_inverse, which turns a
    # g^{-1} that fails or returns a non-finite value into a typed error
    assert _callers("g_inverse") == ["contracts._g_inverse"]


def test_only_the_pricers_check_the_floor():
    # a contract's floor Y0 >= R is checked where a pricer reads Y0: in the
    # one simulating pass and in the two stored-path replays, so the report,
    # the scan and the n-agent estimator hand their contract to the pass
    assert sorted(_callers("_check_floor")) == [
        "contracts._contract_pass",
        "contracts.evaluate_terminal_payment",
        "contracts.mkv_contract_payment",
    ]


def test_names_the_benchmark_harness_binds():
    # bench/child.py and bench/tracer.py reach into the package by name, so
    # a rename would crash every traced run rather than fail a test: child.py
    # wraps cli.load_config, cli.parse_config and a cli._COMMANDS entry, then
    # runs cli.main and compares with cli.EXIT_OK; tracer.py wraps the public
    # functions of its LAYERS modules and mkv_control.minimize, and its hooks
    # bind the parameters below by name (reduced_coefficients' x by position)
    import importlib

    import palab.cli as cli

    for name in ("load_config", "parse_config", "main"):
        assert callable(getattr(cli, name)), name
    assert cli.EXIT_OK == 0
    assert {"multitask-convergence", "policy-opt", "contract-eval", "chaos"} <= set(cli._COMMANDS)

    layers = ("model", "measures", "sde_engine", "contracts", "mkv_control", "principal_n", "estimates")
    mods = {layer: importlib.import_module(f"palab.{layer}") for layer in layers}
    assert callable(mods["mkv_control"].minimize)
    bound = {
        ("principal_n", "estimate_n_player_value"): {"n", "grid", "replications"},
        ("contracts", "joint_deviation_scan"): {"action_grid", "n"},
        ("mkv_control", "optimize_policy"): {"N_proxy", "grid"},
        ("sde_engine", "simulate_particles"): {"n", "grid"},
        ("sde_engine", "simulate_terminal_measure"): {"n", "grid"},
    }
    for (layer, fn), names in bound.items():
        params = inspect.signature(getattr(mods[layer], fn)).parameters
        assert names <= set(params), f"{layer}.{fn}{inspect.signature(getattr(mods[layer], fn))}"
    assert list(inspect.signature(mods["model"].reduced_coefficients).parameters)[2] == "x"


def test_every_public_def_has_a_caller_in_the_package():
    # a public function, method or property that nothing in src/palab reads
    # is surface only tests reach; references are matched by name (a bare
    # name or an attribute), imports and __all__ do not count, and a def's
    # own body does not count for it. mkv_contract_payment, the paper's
    # McKean-Vlasov-dynamics contract, waits for the self-check that calls it.
    allowed = {"mkv_contract_payment"}
    defs, refs = [], []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and isinstance(node, (ast.Module, ast.ClassDef)):
                if not child.name.startswith("_"):
                    defs.append((child.name, child))
                visit(child, child)
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, owner))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, owner))
            visit(child, owner)

    for path in sorted(Path(palab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    unread = sorted(
        name
        for name, node in defs
        if name not in allowed and not any(ref == name and owner is not node for ref, owner in refs)
    )
    assert unread == []


def test_only_estimates_forms_a_standard_error():
    # every mean +- se comes from estimates.mean_se: no other module takes a
    # sample standard deviation (an .std call or a ddof keyword)
    found = []
    for path in sorted(Path(palab.__file__).parent.glob("*.py")):
        if path.name == "estimates.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                is_std = isinstance(node.func, ast.Attribute) and node.func.attr == "std"
                if is_std or any(kw.arg == "ddof" for kw in node.keywords):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
