"""The mutator of ``tests/mutation.py``: its maps match the source, and a
run on a toy module finds, runs and judges each of its mutants."""

import ast

import mutation

TOY = '''\
def floor_at(x, lo):
    return lo if x < lo else x


def scale(x):
    return x * 2 + 1


def untested(x):
    x -= 1
    return x
'''


def test_the_maps_name_every_module_and_live_sites():
    found = mutation.sites(mutation.ROOT / mutation.PACKAGE)
    assert {site.module for site in found} <= set(mutation.TESTS)
    assert all((mutation.ROOT / name).is_file()
               for names in mutation.TESTS.values() for name in names)
    assert set(mutation.EQUIVALENT) <= {site.key for site in found}


def test_sites_are_found_in_order_and_mutated_one_at_a_time(tmp_path):
    (tmp_path / "toy.py").write_text(TOY, encoding="utf-8")
    found = mutation.sites(tmp_path)
    assert [(s.index, s.line, s.scope, s.source, s.change) for s in found] \
        == [(0, 2, "floor_at", "x < lo", "< -> <="),
            (1, 6, "scale", "x * 2 + 1", "+ -> -"),
            (2, 6, "scale", "x * 2", "* -> /"),
            (3, 6, "scale", "x * 2", "2 -> 3"),
            (4, 6, "scale", "x * 2 + 1", "1 -> 2"),
            (5, 10, "untested", "x -= 1", "- -> +"),
            (6, 10, "untested", "x -= 1", "1 -> 2")]
    for site, edited in ((found[2], TOY.replace("x * 2", "x / 2")),
                         (found[6], TOY.replace("x -= 1", "x -= 2"))):
        assert mutation.mutant_source(tmp_path, site) == \
            ast.unparse(ast.parse(edited)) + "\n"


def test_a_run_judges_each_mutant(tmp_path, capsys):
    root = tmp_path / "repo"
    (root / "src" / "toy").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "pyproject.toml").write_text(
        '[tool.pytest.ini_options]\npythonpath = ["src"]\n', encoding="utf-8")
    (root / "src" / "toy" / "arith.py").write_text(TOY, encoding="utf-8")
    (root / "tests" / "test_arith.py").write_text(
        "from toy.arith import floor_at, scale\n\n\n"
        "def test_arith():\n"
        "    assert floor_at(-1, 0) == 0 and floor_at(3, 0) == 3\n"
        "    assert scale(2) == 5\n", encoding="utf-8")
    # Only the whole suite runs this file, and it kills one of the two
    # mutants of ``untested``.
    (root / "tests" / "test_other.py").write_text(
        "from toy.arith import untested\n\n\n"
        "def test_untested():\n"
        "    assert untested(1) >= 0\n", encoding="utf-8")
    code = mutation.main(
        ["--count", "7", "--work", str(tmp_path / "work")], root=root,
        package="src/toy", tests={"arith.py": ["tests/test_arith.py"]},
        equivalent={("arith.py", "floor_at", "x < lo", "< -> <="): "max"})
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert sorted(" ".join(line.split()) for line in lines[:-1]) == sorted([
        "equivalent arith.py:2 floor_at 'x < lo' < -> <=",
        "killed arith.py:6 scale 'x * 2 + 1' + -> -",
        "killed arith.py:6 scale 'x * 2' * -> /",
        "killed arith.py:6 scale 'x * 2' 2 -> 3",
        "killed arith.py:6 scale 'x * 2 + 1' 1 -> 2",
        "survived arith.py:10 untested 'x -= 1' - -> +",
        "killed by the suite arith.py:10 untested 'x -= 1' 1 -> 2"])
    assert lines[-1] == "killed 5 of 6 mutants run (1 equivalent not run)"
    assert (root / "src" / "toy" / "arith.py").read_text("utf-8") == TOY
