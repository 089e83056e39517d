"""The public surface is what the program uses: every exported name has a caller outside tests."""

import ast
import inspect
import io
import tokenize
from pathlib import Path

from greensim_rl.bioenv import ChromatographyEnv
from greensim_rl.core import Environment
from greensim_rl.oracle import TabularEnv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "greensim_rl"

# Exported names kept without a caller in src/ or perfbench/, with the reason.
ALLOWED: dict[tuple[str, str], str] = {}


def exported_names():
    """``(module, name)`` for every name listed in a package module's ``__all__``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    yield path.stem, name


def referenced_names():
    """Identifiers used in code under src/ and perfbench/.

    Strings and comments do not count, and neither does the name a ``def``
    or ``class`` statement defines.
    """
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                previous = tok.string
    return used


def test_every_exported_name_has_a_caller():
    used = referenced_names()
    uncalled = sorted(
        f"{module}.{name}"
        for module, name in exported_names()
        if name not in used and (module, name) not in ALLOWED
    )
    assert uncalled == [], f"exported but called only from tests (delete, or call it): {uncalled}"


def test_allow_list_is_current():
    # an allowed name that gains a caller, or disappears, leaves the list
    used = referenced_names()
    exported = set(exported_names())
    for module, name in ALLOWED:
        assert (module, name) in exported and name not in used


def test_one_csv_writer():
    # every table the program writes goes through core.write_csv
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tokens = [
            tok
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)
        ]
        for first, dot, attr in zip(tokens, tokens[1:], tokens[2:]):
            if (first.string, dot.string, attr.string) == ("csv", ".", "writer"):
                sites.append((path.stem, first.start[0]))
    tree = ast.parse((PACKAGE / "core.py").read_text())
    (writer,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "write_csv"]
    assert sites and all(
        module == "core" and writer.lineno <= line <= writer.end_lineno for module, line in sites
    ), f"csv.writer outside core.write_csv: {sites}"


def test_cli_and_trainer_write_no_run_file():
    # harness lays out every run directory: cli, trainer and policy name none of the writers of its files
    writers = {"write_csv", "dump", "save_scenario", "write_fractions_csv", "write_manifest"}
    sites = [
        (module, tok.start[0], tok.string)
        for module in ("cli", "trainer", "policy")
        for tok in tokenize.generate_tokens(io.StringIO((PACKAGE / f"{module}.py").read_text()).readline)
        if tok.type == tokenize.NAME and tok.string in writers
    ]
    assert sites == [], f"run files written outside harness: {sites}"


def imports_package_module(node) -> bool:
    """Whether ``node`` imports a module of this package, by a relative import or by the package's name."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name
    return isinstance(node, ast.Import) and any(alias.name.split(".")[0] == PACKAGE.name for alias in node.names)


def test_package_imports_at_module_top():
    # a module imports the package's other modules among its top-level statements:
    # never inside a function, so the import graph is what the module heads say,
    # and never under TYPE_CHECKING, so no name is imported for annotations only
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites += [
            (path.stem, node.lineno)
            for node in ast.walk(tree)
            if imports_package_module(node) and not any(node is top for top in tree.body)
        ]
    assert sites == [], f"package module imported below a module's top level: {sites}"


def test_one_json_reader():
    # every JSON file the program reads is parsed by core.read_json
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tokens = [
            tok
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)
        ]
        for first, dot, attr in zip(tokens, tokens[1:], tokens[2:]):
            if (first.string, dot.string) == ("json", ".") and attr.string in ("load", "loads"):
                sites.append((path.stem, first.start[0]))
    tree = ast.parse((PACKAGE / "core.py").read_text())
    (reader,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "read_json"]
    assert sites and all(
        module == "core" and reader.lineno <= line <= reader.end_lineno for module, line in sites
    ), f"json.load or json.loads outside core.read_json: {sites}"


def test_one_softmax_head():
    # every policy's softmax, log probabilities and score hook are core.Policy's
    head = {"action_probs_batch", "log_prob_batch", "score_pass"}
    definers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                definers |= {
                    (path.stem, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in head
                }
    assert definers == {("core", "Policy", name) for name in head}, f"softmax head defined in {sorted(definers)}"


def test_one_softmax_pass():
    # the head's max shift, exp and row sum are computed by one function of core
    def calls(node, name):
        return any(
            isinstance(call, ast.Call) and ast.unparse(call.func) == name for call in ast.walk(node)
        )

    tree = ast.parse((PACKAGE / "core.py").read_text())
    passes = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and calls(node, "_row_max") and calls(node, "np.exp")
    ]
    assert len(passes) == 1, f"softmax terms computed in {passes}"


def test_environments_keep_the_contract_signatures():
    # every concrete environment takes each abstract hook's arguments under the contract's names
    concrete = {
        cls for cls in Environment.__subclasses__() if cls.__module__.startswith(f"{PACKAGE.name}.")
    }
    assert concrete == {ChromatographyEnv, TabularEnv}
    for cls in concrete:
        for name in Environment.__abstractmethods__:
            want = list(inspect.signature(getattr(Environment, name)).parameters)
            assert list(inspect.signature(getattr(cls, name)).parameters) == want, f"{cls.__name__}.{name}"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_name_across_modules():
    # a module uses only the public names of the package's other modules: it imports
    # none of their _-prefixed names and reads none from a package module it imported
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # the names this module binds to the package or its modules
        for node in ast.walk(tree):
            if not imports_package_module(node):
                continue
            for alias in node.names:
                if isinstance(node, ast.Import):
                    modules.add(alias.asname or alias.name.split(".")[0])
                elif is_private(alias.name):
                    sites.append((path.stem, node.lineno, alias.name))
                elif (PACKAGE / f"{alias.name}.py").exists() and node.module in (None, PACKAGE.name):
                    modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and is_private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    sites.append((path.stem, node.lineno, node.attr))
    assert sites == [], f"private names used across package modules: {sites}"
