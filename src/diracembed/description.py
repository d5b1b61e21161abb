"""The plain text form of a transitive triple.

One line per datum: the dimension and labels, the nonzero brackets and
form entries, the columns of sigma and theta, and the vectors of the h, l,
slice and h-module bases, as in ``bracket h1 e1: 0, 2, 0, 0, 0, 0``.
Reading a description builds, and so certifies, a TransitiveTriple.
"""

from .scalars import ExactMatrix, parse_scalar, ZERO, ONE
from .lie import LieAlgebra, vec_add, vec_scale, vec_is_zero
from .triple import TransitiveTriple


def dump_triple_description(triple):
    """Key-value text form of a triple, readable by parse_triple_description."""
    g = triple.algebra
    lines = [f"dim: {g.dim}", "labels: " + ", ".join(g.labels)]

    def row(v):
        return ", ".join(s.canonical() for s in v)

    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            b = g.brackets[i][j]
            if not vec_is_zero(b):
                lines.append(f"bracket {g.labels[i]} {g.labels[j]}: {row(b)}")
    for i in range(g.dim):
        for j in range(i, g.dim):
            if not g.form[i, j].is_zero():
                lines.append(f"form {g.labels[i]} {g.labels[j]}: "
                             f"{g.form[i, j].canonical()}")
    for name, matrix in (("sigma", triple.sigma), ("theta", triple.theta)):
        for j in range(g.dim):
            lines.append(f"{name} {g.labels[j]}: {row(matrix.col(j))}")
    for name, basis in (("h", triple.h_basis), ("l", triple.l_basis),
                        ("zbasis", triple.zq_basis),
                        ("tbasis", triple.t_basis)):
        for idx, v in enumerate(basis):
            lines.append(f"{name} {idx}: {row(v)}")
    if triple.h_module_map is not None:
        for idx, v in enumerate(triple.h_module_map):
            lines.append(f"hmodule {idx}: {row(v)}")
    return "\n".join(lines) + "\n"


def _line_error(line, problem):
    return ValueError(f"{problem} in line {line!r}")


def _line_values(line, tail):
    """The comma-separated scalars after a line's ':'."""
    try:
        return tuple(parse_scalar(tok.strip())
                     for tok in tail.split(",")) if tail.strip() else ()
    except ValueError as exc:
        raise _line_error(line, exc) from None


def parse_triple_description(text):
    """Build a TransitiveTriple from its key-value text form.

    Lines look like ``bracket h1 e1: 0, 2, 0, 0, 0, 0``; blank lines and
    lines starting with ``#`` are skipped.  Coordinates use the canonical
    scalar grammar.  A malformed line raises a ValueError that quotes it.
    """
    header = {}
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ValueError(f"missing ':' in line {line!r}")
        words = head.split()
        if not words:
            raise _line_error(line, "missing key")
        if words[0] in ("dim", "labels"):
            if len(words) > 1 or words[0] in header:
                raise _line_error(line, f"repeated or qualified {words[0]!r}")
            header[words[0]] = (line, tail)
        else:
            entries.append((line, words[0], words[1:], tail))
    if set(header) != {"dim", "labels"}:
        raise ValueError("dim and labels must be given")
    line, tail = header["dim"]
    try:
        dim = int(tail)
    except ValueError:
        raise _line_error(line, "dim is not an integer") from None
    line, tail = header["labels"]
    labels = tuple(tok.strip() for tok in tail.split(","))
    if len(labels) != dim or len(set(labels)) != dim or not all(labels):
        raise _line_error(line, f"expected {dim} distinct labels")
    index = {lab: i for i, lab in enumerate(labels)}

    # key -> (names it takes, whether they are labels, values per line)
    shapes = {"bracket": (2, True, dim), "form": (2, True, 1),
              "sigma": (1, True, dim), "theta": (1, True, dim),
              "h": (1, False, dim), "l": (1, False, dim),
              "zbasis": (1, False, dim), "tbasis": (1, False, dim),
              "hmodule": (1, False, None)}
    given = {key: {} for key in shapes}
    source = {}                     # (key, slot) -> the line that gave it
    for line, key, names, tail in entries:
        if key not in shapes:
            raise _line_error(line, f"unknown key {key!r}")
        arity, labelled, width = shapes[key]
        if len(names) != arity:
            raise _line_error(line, f"{key!r} takes {arity} name(s)")
        if labelled:
            unknown = [n for n in names if n not in index]
            if unknown:
                raise _line_error(line, f"unknown label {unknown[0]!r}")
            slot = tuple(index[n] for n in names)
            if key == "form":
                slot = tuple(sorted(slot))
        elif names[0].isdecimal():
            slot = int(names[0])
        else:
            raise _line_error(line, f"index {names[0]!r} is not a number")
        if slot in given[key]:
            raise _line_error(line, "duplicate key")
        values = _line_values(line, tail)
        if width is None:           # every hmodule row as long as the first
            shapes[key] = (arity, labelled, len(values))
        elif len(values) != width:
            raise _line_error(line, f"expected {width} value(s), found {len(values)}")
        if key == "bracket":
            mirror = values if slot[0] == slot[1] else given[key].get(slot[::-1])
            if mirror is not None and not vec_is_zero(vec_add(values, mirror)):
                raise _line_error(line, "bracket not antisymmetric")
        given[key][slot] = values
        source[key, slot] = line

    table = [[(ZERO,) * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in given["bracket"].items():
        table[i][j] = v
        if (j, i) not in given["bracket"]:
            table[j][i] = vec_scale(-ONE, v)
    form = [[ZERO] * dim for _ in range(dim)]
    for (i, j), (v,) in given["form"].items():
        form[i][j] = form[j][i] = v
    algebra = LieAlgebra(labels, table, ExactMatrix(form))

    def matrix_from(name):
        cols = given[name]
        if len(cols) != dim:
            raise ValueError(f"{name} must list one column per label")
        return ExactMatrix.from_columns([cols[(j,)] for j in range(dim)], dim)

    def basis_from(key):
        rows = given[key]
        for i in rows:
            if i >= len(rows):
                raise _line_error(source[key, i],
                                  f"{key} indices must run 0..{len(rows) - 1}")
        return [rows[i] for i in range(len(rows))] if rows else None

    return TransitiveTriple(
        algebra, matrix_from("sigma"), matrix_from("theta"),
        basis_from("h") or [], basis_from("l") or [],
        zq_basis=basis_from("zbasis"), t_basis=basis_from("tbasis"),
        h_module_map=basis_from("hmodule"))


def load_triple(path):
    """Read a triple description file.  See parse_triple_description."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_triple_description(fh.read())
