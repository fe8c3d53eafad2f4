"""The package namespace, and which submodules each entry point loads.

``fcdiag`` imports a submodule on first use, and each CLI command imports
what it needs when it runs; these tests pin both the public names and the
modules a fresh interpreter loads.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcdiag
from fcdiag import cli, verify

SRC = str(Path(fcdiag.__file__).resolve().parent.parent)

# Every name the package exported when it imported all its submodules up
# front, by the submodule that defines it.
EXPORTS = {
    "bijection": """BijectionTrace block_pairs diagram_of diagram_to_fc dplus_condition
        fc_to_diagram fc_to_diagram_reference reference_drawings""",
    "counting": """StartEndCount appendix_binomial_identity_check catalan catalan_row
        count_first_block count_last_block count_size_end count_start_end
        count_start_size narayana narayana_row triangle_end triangle_row triangle_start""",
    "diagram": "Components Diagram concatenate diagram_from_json enumerate_diagrams parse_diagram",
    "errors": """CrossingError FCDiagramError IdentityHasNoDescentsError IndexOutOfRangeError
        InvalidBallotError InvalidPathError NotMatchingError NotNormalizedError
        NotStandardError NotThickError ParseError RankMismatchError RankOutOfRangeError
        StringMismatchError UnexpectedLoopError""",
    "fc": """Classification FCElement enumerate_fc fc_from_json inversions is_321_avoiding
        is_saturated_in parse_fc perm_left_descents perm_right_descents permutation_of_word""",
    "lattice": """Ballot DyckPath ballot_to_dyck diagram_to_ballot dyck_to_ballot dyck_to_fc
        fc_to_ballot fc_to_dyck parse_ballot parse_dyck peaks""",
    "svg": "diagram_to_svg",
    "tl": """DeltaPoly TLElement census descents_from_diagram equivalence_key
        expected_class_size key_to_text monomial_product multiply""",
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names.split()]

HEAVY = {"bijection", "diagram", "fc", "tl", "verify", "lattice", "svg"}


def loaded_by(code: str) -> set[str]:
    """The ``fcdiag`` submodules loaded after a fresh interpreter runs ``code``."""
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('fcdiag')))"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return {m.removeprefix("fcdiag.") for m in done.stdout.splitlines()[-1].split()}


def after_main(argv: list[str]) -> set[str]:
    return loaded_by(f"import fcdiag.cli; fcdiag.cli.main({argv!r})")


class TestImportFootprint:
    def test_package_and_cli(self):
        assert loaded_by("import fcdiag, fcdiag.cli") == {"fcdiag", "cli", "counting", "errors"}

    def test_package_alone(self):
        assert loaded_by("import fcdiag") == {"fcdiag"}

    def test_diagram_loads_only_errors(self):
        assert loaded_by("import fcdiag.diagram") == {"fcdiag", "diagram", "errors"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "5"],
            ["count", "--n", "5", "--narayana", "--json"],
            ["count", "--n", "5", "--triangle"],
            ["table", "narayana", "--n", "5"],
            ["table", "triangle", "--n", "5", "--format", "json"],
            ["table", "start-end", "--n", "5", "--format", "csv"],
            ["table", "first-block", "--n", "5"],
        ],
    )
    def test_counts_load_no_drawing_code(self, argv):
        assert not after_main(argv) & HEAVY

    @pytest.mark.parametrize(
        "argv",
        [
            ["mul", "n=4:[1,4]", "n=4:[4,4][3,3][1,1]"],
            ["to-diagram", "n=5:[4,5][3,3][1,1]"],
            ["to-diagram", "--trace", "n=5:[4,5][3,3][1,1]"],
        ],
    )
    def test_products_and_drawings_load_no_verify_lattice_or_svg(self, argv):
        assert not after_main(argv) & {"verify", "lattice", "svg"}


class TestPrivateNames:
    def test_no_module_imports_a_private_name_of_another(self):
        found = []
        for path in sorted(Path(fcdiag.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "fcdiag"
                ):
                    found += [
                        f"{path.name}: {node.module}.{alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_")
                    ]
        assert found == []


class TestNamespace:
    @pytest.mark.parametrize("module,name", EXPORTED)
    def test_export_is_its_submodule_attribute(self, module, name):
        assert getattr(fcdiag, name) is getattr(importlib.import_module(f"fcdiag.{module}"), name)

    def test_star_import_binds_exactly_the_exports(self):
        namespace: dict = {}
        exec("from fcdiag import *", namespace)
        assert set(namespace) - {"__builtins__"} == {name for _, name in EXPORTED}

    def test_dir_lists_exports_and_submodules(self):
        assert {name for _, name in EXPORTED} | set(EXPORTS) <= set(dir(fcdiag))

    def test_submodules_are_attributes(self):
        for module in [*EXPORTS, "cli", "verify"]:
            assert getattr(fcdiag, module) is importlib.import_module(f"fcdiag.{module}")

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="module 'fcdiag' has no attribute 'no_such_name'"):
            getattr(fcdiag, "no_such_name")
        assert not hasattr(fcdiag, "enumerate")

    def test_cli_suite_names_are_verify_suites(self):
        assert cli.VERIFY_SUITES == tuple(sorted(verify.SUITES))

    def test_verify_help_names_the_suites(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (
            "usage: fcdiag verify [-h] [--all] [--max-n MAX_N] [SUITE ...]\n"
            "\n"
            "positional arguments:\n"
            "  SUITE          suites to run (default: all): bijection, counting, diagram,\n"
            "                 fc, lattice, tl\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --all          run every suite\n"
            "  --max-n MAX_N  cap enumeration sweeps at this rank\n"
        )
