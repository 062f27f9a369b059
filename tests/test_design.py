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


def test_list_majority_decodes_its_fills_by_key():
    """list-majority decodes its fills as mixed-radix keys (reconstruction._decode_fills), int64
    or Python ints; candidate rows are built by _candidates for the majority decoder and for
    list-min (whose few rows decode faster so), and are collected by _decode_lists there and in
    the Sauer block decoder."""
    rows = [("reconstruction", f) for f in ("_decode_majority", "_decode_list_min")]
    assert sites("_candidates", allowed=rows) == []
    assert sites("_decode_lists", allowed=[("reconstruction", f)
                                           for f in ("_decode_list_min", "_decode_sauer")]) == []


def test_one_key_format():
    """core._row_keys keys rows in the one mixed-radix frame of core.radix_places, int64 below
    2**63 and Python ints past it, so no code ranks rows by np.lexsort; lexsort orders the ball
    by error weight in channel._adversarial_order alone, which is an order, not a grouping."""
    assert sites("lexsort", allowed=[("channel", "_adversarial_order")]) == []


def test_one_coordinate_search():
    """The Sauer witness search is reconstruction._witnesses, a bit-parallel scan over whole
    blocks: sauer_shelah_find runs it on a stack of one and _decode_sauer on each block, no
    other code calls it, and no per-pattern reduce(and_, ...) scan remains.  And _decode_sauer
    makes one candidate pass per block part: it calls _sauer_candidates and _decode_lists once
    in its loop over block.parts() and in no inner loop, since every witness of size c has the
    same (k+ + k-)^c V(n - c, f - c) shifts, and a pass per witness pays each numpy call again."""
    users = {("reconstruction", "sauer_shelah_find"), ("reconstruction", "_decode_sauer")}
    assert {s[:2] for s in sites("_witnesses")} == users
    assert sites("reduce", test=lambda call: call.args and name_of(call.args[0]) == "and_") == []
    (decode,) = [n for module, where, n in _nodes() if isinstance(n, DEFS)
                 and (module, where) == ("reconstruction", "_decode_sauer")]
    loops = [n for n in ast.walk(decode) if isinstance(n, (
        ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))]
    (parts,) = [n for n in loops if isinstance(n, ast.For) and name_of(n.iter) == "parts"]
    for name in ("_sauer_candidates", "_decode_lists"):
        (call,) = [n for n in ast.walk(decode) if isinstance(n, ast.Call) and name_of(n) == name]
        assert [loop for loop in loops if call in ast.walk(loop)] == [parts]


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


def test_one_integer_gate():
    """Every vector from outside the library becomes a matrix through core.int_rows (or is checked
    by it: core.check_ints hands it any vector that is not all Python ints), which
    alone tests an entry against np.integer and picks int64 or Python ints (an object array)
    from the entries. So no other code tests an entry so or calls a function that does, and no
    other code picks an object dtype, apart from three rules that pick from something else:
    tandem's row sums (a simplex row's sum, not its entries, must stay below 2**62), the group
    order of lattice._syndrome_codes, and the key frame of core.radix_places and _row_keys."""
    gate = [("core", "int_rows")]
    gated = {("core", "Code.decode_within"), ("core", "ExplicitCode.__init__"),
             ("core", "check_ints"),
             ("reconstruction", "ReadSet.__init__"), ("reconstruction", "sauer_shelah_find"),
             ("channel", "_ball_and_shift"), ("tandem", "_shift"),
             ("tandem", "SimplexCode.__post_init__"), ("tandem", "SimplexCode.decode_upward"),
             ("tandem", "reconstruct_simplex_min")}
    other_rules = [("tandem", "SimplexCode.__post_init__"), ("tandem", "SimplexCode.decode_upward"),
                   ("tandem", "simplex_min_counts"), ("lattice", "_syndrome_codes"),
                   ("core", "radix_places"), ("core", "_row_keys")]
    integer = lambda call: len(call.args) == 2 and any(  # noqa: E731
        name_of(n) == "integer" for n in ast.walk(call.args[1]))
    tests = sites("isinstance", ast.Call, integer, gate)
    # an object dtype read, not picked: compared with, given outright, or an attribute's owner
    read = {id(n) for _, _, node in _nodes() for n in (
        [node.left, *node.comparators] if isinstance(node, ast.Compare)
        else [node.value] if isinstance(node, ast.Attribute)
        or isinstance(node, ast.keyword) and node.arg == "dtype" else [])}
    picked = lambda n: n.id == "object" and id(n) not in read  # noqa: E731
    assert {s[:2] for s in sites("int_rows")} == gated
    assert tests + [s for _, where, _ in tests for s in sites(where.split(".")[-1])] == []
    assert sites(None, ast.Name, picked, gate + other_rules) == []


def test_one_weight_count():
    """Every Hamming weight compared with a bound is counted by core.hamming, the one home of the
    uint8 einsum and its 256-entry limit: no other code calls einsum or min_scalar_type, or views
    an array as uint8 bytes."""
    uint8 = lambda call: name_of(call) == "view" and any(  # noqa: E731
        name_of(a) == "uint8" or getattr(a, "value", None) in ("uint8", "u1") for a in call.args)
    kernel = [("core", "hamming")]
    assert sites("einsum", allowed=kernel) + sites("min_scalar_type", allowed=kernel) == []
    assert sites(None, ast.Call, uint8, kernel) == []


TRACED = "item 6: the per-set layer, pinned by perfbench/tracing.py (item 1a first)"
ITEM_2 = "item 2: a paper result waiting for intersect --delta"
ITEM_3 = "items 3 and 26: a paper result waiting for a code's read count"
ITEM_4 = "item 4: a paper result waiting for the smallest lattice codes"
ITEM_9 = "item 9: a paper result waiting for the read/list-size trade-off"
WORKLOAD = "a workload helper: perfbench/workloads.py writes its simplex code files"
ORACLE = "an oracle: the tests and the README doctest draw reference read sets with it"

#: The defs that no command reaches, each with its reason.  The list may only shrink.
UNREACHED = {
    "channel.TrialRecord": TRACED, "channel.TrialRecord.to_line": TRACED,
    "channel.exhaustive_read_sets": TRACED, "channel.generate_reads": TRACED,
    "channel.read_sets": ORACLE, "channel.run_trial": TRACED,
    "combinatorics.IntersectionBounds": ITEM_2, "combinatorics.intersection_bounds": ITEM_2,
    "combinatorics.ball_vectors": TRACED, "combinatorics.max_intersection_of_code": ITEM_3,
    "core.Code.decode_within": TRACED, "core.EstimateWord": TRACED,
    "lattice.FiniteAbelianGroup.scale": ITEM_4, "lattice._distinct_multiples": ITEM_4,
    "lattice._radius_one": ITEM_4, "lattice.check_recon_N1": ITEM_4,
    "lattice.check_recon_N2": ITEM_4, "lattice.construct_N1_code": ITEM_4,
    "lattice.construct_N2_code": ITEM_4, "lattice.min_group_order_bound": ITEM_4,
    "reconstruction.ReadSet": TRACED, "reconstruction._covers": TRACED,
    "reconstruction._rows": TRACED, "reconstruction.list_reconstruct_majority": TRACED,
    "reconstruction.list_reconstruct_min": TRACED, "reconstruction.list_reconstruct_sauer": TRACED,
    "reconstruction.majority_estimate": TRACED, "reconstruction.reconstruct_majority": TRACED,
    "reconstruction.reconstruct_min": TRACED, "reconstruction.sauer_shelah_find": TRACED,
    "reconstruction.adversarial_code_size_bound": ITEM_9,
    "reconstruction.adversarial_instance": ITEM_9,
    "tandem.SimplexCode.decode_upward": TRACED, "tandem._shells": TRACED, "tandem._shift": TRACED,
    "tandem.exhaustive_simplex_read_sets": TRACED, "tandem.reconstruct_simplex_min": TRACED,
    "tandem.upward_ball": TRACED,
    "tandem.greedy_simplex_code": WORKLOAD, "tandem.format_simplex_code": WORKLOAD,
}


def test_every_function_is_reached():
    """The least code: every function, class and method of src/magrec is reached from cli.main
    or the module-level code by a call graph whose names resolve by their last part (so it
    over-approximates what runs), or is on UNREACHED with its reason; a method named __x__ goes
    with its class. An entry that is reached or gone fails too, so the list only shrinks."""
    unit = lambda module, where: (module, where and where.split(".__")[0])  # noqa: E731
    defs = {(m, w) for m, w, n in _nodes() if isinstance(n, DEFS + (ast.ClassDef,)) and w
            and w.split(".")[-1] == n.name and not n.name.startswith("__")}
    named, refs = {}, {}
    for m, w in defs:
        named.setdefault(w.split(".")[-1], set()).add((m, w))
    for m, w, n in _nodes():
        if isinstance(n, (ast.Name, ast.Attribute)):
            key = unit(m, w) if unit(m, w) in defs else (m, None)
            refs.setdefault(key, set()).add(name_of(n))
    todo, reached = [("cli", "main"), *{(m, None) for m, _, _ in _nodes()}], set()
    while todo:
        if (key := todo.pop()) not in reached:
            reached.add(key)
            todo += [d for name in refs.get(key, ()) for d in named.get(name, ())]
    unreached = {f"{m}.{w}" for m, w in defs - reached}
    assert sorted(unreached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - unreached) == []
