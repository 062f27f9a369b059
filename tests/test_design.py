"""The design rules of the library, one test each, with its reason as its docstring."""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "magrec"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.cache
def _nodes():
    """(module, enclosing, node) of every node of every module, parsed once; enclosing is the
    top-level def, ``Class.method``, class or assigned name, else None."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            lhs = getattr(top, "targets", [getattr(top, "target", None)])[0]
            where = {id(n): getattr(top, "name", getattr(lhs, "id", None)) for n in ast.walk(top)}
            for f in top.body if isinstance(top, ast.ClassDef) else ():
                if isinstance(f, DEFS):
                    where.update((id(n), f"{top.name}.{f.name}") for n in ast.walk(f))
            found += [(path.stem, where[id(n)], n) for n in ast.walk(top)]
    return found


def name_of(node):
    """The callee of a call; the name of a name, attribute, import or def."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))


def sites(name, kind=ast.Call, test=lambda node: True, allowed=()):
    """(module, enclosing, line) of each ``kind`` node (a call) naming ``name`` (None: any) that
    passes ``test``, in no allowed module and no allowed (module, enclosing)."""
    return [(module, where, node.lineno) for module, where, node in _nodes()
            if isinstance(node, kind) and (name is None or name_of(node) == name) and test(node)
            and module not in allowed and (module, where) not in allowed]


def test_rows_are_grouped_by_core_group_keys_alone():
    """An axis given to unique sorts a structured view of the rows, many times slower than a
    1-D sort of the int64 row keys; and rows are grouped by core.group_keys alone, so outside
    core.py no code calls unique (a merge sort) or a stable argsort."""
    stable = lambda call: any(  # noqa: E731
        (k.arg, getattr(k.value, "value", None)) == ("kind", "stable") for k in call.keywords)
    assert sites("unique", test=lambda call: any(k.arg == "axis" for k in call.keywords)) == []
    assert sites("unique", allowed=["core"]) + sites("argsort", ast.Call, stable, ["core"]) == []


def test_the_bounds_live_in_core():
    """EnumerationCapExceeded is raised by core.charge alone, and no module keeps a byte budget
    of its own beside core.BLOCK_BYTES and the one cache's combinatorics.BALL_CACHE_BYTES."""
    budget = lambda n: isinstance(n.ctx, ast.Store) and n.id.endswith("_BYTES")  # noqa: E731
    assert sites("EnumerationCapExceeded", allowed=[("core", "charge")]) == []
    assert sites(None, ast.Name, budget, [("core", "BLOCK_BYTES"),
                                          ("combinatorics", "BALL_CACHE_BYTES")]) == []


def test_every_function_of_a_channel_takes_it_as_one_channel_params():
    """No def takes k+ or k- apart from the channel; ball_vectors and lattice_min_distance keep
    them because perfbench/tracing.py reads their arguments by position."""
    pinned, channel = {"ball_vectors", "lattice_min_distance"}, {"k_plus", "k_minus"}
    split = lambda f: f.name not in pinned and channel & {  # noqa: E731
        a.arg for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs}
    assert sites(None, DEFS, split) == []


def test_the_one_read_plan_is_built_in_one_place():
    """reconstruction.read_plan alone applies the one-read rule past t: no other code names its
    decoder, and its anchor id appears only there and as the key of cli.ANCHORS."""
    keys = {id(key) for module, where, n in _nodes()
            if (module, where) == ("cli", "ANCHORS") and isinstance(n, ast.Dict) for key in n.keys}
    plan = [("reconstruction", "read_plan")]
    literal = lambda n: isinstance(n.value, str) and "unique-decode" in n.value  # noqa: E731
    assert sites("_decode_one_read", (ast.Name, ast.Attribute, ast.alias), allowed=plan) == []
    assert sites(None, ast.Constant, lambda n: literal(n) and id(n) not in keys, plan) == []


def test_read_blocks_are_checked_in_two_places_and_trusted_in_one():
    """core.check_stack runs in ReadBlock.__init__, on the stack it is given, and in
    combinatorics.ball_matrix, on each ball it enumerates; ReadBlock.of_ball trusts that ball
    and is called by channel alone, which builds its blocks from it."""
    checked = [("reconstruction", "ReadBlock.__init__"), ("combinatorics", "ball_matrix")]
    assert sites("check_stack", allowed=checked) + sites("of_ball", allowed=["channel"]) == []


def test_the_cli_decodes_only_stacks_that_channel_built():
    """Every ReadBlock is valid by construction (the rule above): cli._trials decodes the
    blocks of channel.read_blocks and channel.minimum_sets with plan.decode, and
    channel.run_trial the block of one that its ReadSet built and checked; no other code calls
    a .decode attribute."""
    method = lambda call: isinstance(call.func, ast.Attribute)  # noqa: E731
    assert sites("decode", ast.Call, method, [("channel", "run_trial"), ("cli", "_trials")]) == []


def test_erasure_fills_are_decoded_by_key_and_rows_only_where_keys_cannot_go():
    """list-majority decodes its fills as mixed-radix keys (reconstruction._decode_fills);
    candidate rows are built by _candidates for the majority decoder, for list-min (whose few
    rows decode faster so) and for the fallback of _decode_fills past 2**63, and are collected
    by _decode_lists there and in the Sauer block decoder."""
    rows = [("reconstruction", f) for f in ("_decode_list_min", "_decode_fills")]
    assert sites("_candidates", allowed=[("reconstruction", "_decode_majority"), *rows]) == []
    assert sites("_decode_lists", allowed=[("reconstruction", "_decode_sauer"), *rows]) == []


def test_one_coordinate_search():
    """The Sauer witness search is reconstruction._witnesses, a bit-parallel scan over whole
    blocks: sauer_shelah_find runs it on a stack of one and _decode_sauer on each block, no
    other code calls it, and no per-pattern reduce(and_, ...) scan remains."""
    users = {("reconstruction", "sauer_shelah_find"), ("reconstruction", "_decode_sauer")}
    assert {s[:2] for s in sites("_witnesses")} == users
    assert sites("reduce", test=lambda call: call.args and name_of(call.args[0]) == "and_") == []


def test_derived_tables_live_in_the_one_cache():
    """Balls, one-hot matrices, coset-leader tables, difference classes, tandem upward balls,
    minimum counts and code-file handles are kept by combinatorics.cached alone, under one byte
    budget: no lru_cache, functools.cache only on cli.build_parser (the one parser, no table),
    no OrderedDict outside combinatorics.py, and no code handle (a subclass of core.Code) sets
    an attribute outside __init__."""
    classes = [(m, n) for m, _, n in _nodes() if isinstance(n, ast.ClassDef)]
    codes = {"Code"}
    for _ in classes:  # one pass per class reaches every subclass, however deep
        codes |= {c.name for _, c in classes if {name_of(b) for b in c.bases} & codes}
    sets = [(m, f"{c.name}.{f.name}", n.lineno) for m, c in classes if c.name in codes - {"Code"}
            for f in c.body if isinstance(f, DEFS) and f.name != "__init__" for n in ast.walk(f)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, (ast.Store, ast.Del))
            and getattr(n.value, "id", None) == "self"]
    names = (ast.Name, ast.Attribute, ast.alias)
    assert sites("lru_cache", names) + sites("cache", names, allowed=[("cli", "build_parser")]) == []
    assert sites("OrderedDict", allowed=["combinatorics"]) + sets == []


def test_one_ball_enumerator():
    """Every ball is enumerated by combinatorics._lex_rows, through ball_matrix and the tandem
    excess table; itertools.product builds only the CLI's parameter grid and the raised counts
    of the Möbius kernel, so no fast path keeps a product loop over a ball."""
    lex = sites("_lex_rows", allowed=[("combinatorics", "ball_matrix"), ("tandem", "_excess")])
    grids = [("cli", "_grid_params"), ("combinatorics", "subsets_with_minimum")]
    assert lex + sites("product", allowed=grids) == []


def test_one_mobius_inversion():
    """Every count of the N-subsets with a given minimum is one Möbius inversion, written once
    in combinatorics.subsets_with_minimum: no other code raises -1 to a power, the alternating
    sign of an inclusion-exclusion sum."""
    sign = lambda n: isinstance(n.op, ast.Pow) and ast.unparse(n.left) == "-1"  # noqa: E731
    assert sites(None, ast.BinOp, sign, [("combinatorics", "subsets_with_minimum")]) == []
    assert sites(None, ast.BinOp, sign) != []


def test_no_module_imports_a_name_it_does_not_use():
    """Dead code goes: every name a module imports is read in it, apart from __future__
    features and the re-exports of __init__.py."""
    used = {(module, n.id) for module, _, n in _nodes() if isinstance(n, ast.Name)}
    unused = [(module, where, n.lineno, a.asname or a.name) for module, where, n in _nodes()
              if isinstance(n, (ast.Import, ast.ImportFrom)) and module != "__init__"
              and getattr(n, "module", None) != "__future__" for a in n.names
              if (module, (a.asname or a.name).split(".")[0]) not in used]
    assert unused == []
