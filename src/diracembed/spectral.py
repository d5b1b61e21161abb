"""Block spectroscopy of the slice Dirac operators in the rank-one example.

The section space over the compact torus splits into character blocks
C_{-a,-b} (x) C_{a,b} (x) S (x) E_{-a-b}.  On each block the compact
slice Dirac operator acts by an exact scalar, the cubic term cancels it
exactly on the a-b = -2 line, and what remains of the embedded operator
is the noncompact slice operator.  Its kernel lines are identified by
the unique weight module, over all integer parameters of its family, whose
algebraic Dirac kernel meets the torus weight each block prescribes; a
certified formula for the Dirac square leaves at most two to solve.

Spin basis lines are always named by their computed torus weight (the
gamma action of the grading element of the compact subalgebra): the +1
line is called "u" on the slice spinors and "e" on the spinors of the
fixed subalgebra, the -1 line is called "1" in both.  No label is ever
attached by position in a chosen polarization basis.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .scalars import ExactMatrix, ExactScalar, coerce, ZERO, ONE, I, INV_SQRT2
from .lie import (WeightModule, sl2, sl2_irrep,
                  lowest_weight_module, highest_weight_module,
                  vec, vec_add, vec_scale, vec_combination, unit_vector)
from .clifford import CliffordElement, ReductivePair, inject_element
from .spin import SpinModule
from .triple import solve_in_span
from .dirac import beta_action, algebraic_dirac, residual_term


class SpectralError(ValueError):
    """A spectral bookkeeping invariant failed."""


# -- character blocks ---------------------------------------------------------


class CharacterLabel(NamedTuple):
    """A character of the product torus, with integer parameters (a, b)."""

    a: int
    b: int

    @property
    def z_scalar(self) -> ExactScalar:
        """Scalar action of the slice rotation generator: i(a-b)/2."""
        return I * coerce(Fraction(self.a - self.b, 2))


class PeterWeylBlock(NamedTuple):
    """One character block of the decomposed section space.

    The right label carries (a, b); the left label is its negative.  The
    twist weight forced by invariance is -a-b, and spin_ls names the
    slice spin line ("1" or "u") the block carries.
    """

    left: CharacterLabel
    right: CharacterLabel
    spin_ls: str
    e_weight: int


def make_block(a: int, b: int, spin_ls: str = "1") -> PeterWeylBlock:
    """Build the block with right label (a, b) on the named slice spin
    line; invariance forces the twist weight -a-b."""
    if spin_ls not in ("1", "u"):
        raise SpectralError(f"unknown slice spin line {spin_ls!r}")
    return PeterWeylBlock(CharacterLabel(-a, -b), CharacterLabel(a, b),
                          spin_ls, -a - b)


# -- scalar actions -----------------------------------------------------------


def _scalar_of(matrix: ExactMatrix) -> ExactScalar:
    s = matrix[0, 0]
    if not matrix.is_scalar(s):
        raise SpectralError("expected a scalar matrix")
    return s


def compact_generator_scalar(triple) -> ExactScalar:
    """Scalar gamma action of the compact slice direction on its spin line."""
    if len(triple.zq_basis) != 1:
        raise SpectralError("a single compact slice direction is required")
    return _scalar_of(triple.spin_qlp.gamma_generator(0))


def block_eigenvalue(triple, blk: PeterWeylBlock) -> ExactScalar:
    """Eigenvalue of the compact slice Dirac operator on a block.

    Composed from the two scalar actions of the compact slice direction:
    the character value on the right label and the gamma action on the
    one-dimensional spin factor, weighted by the direction's norm sign.
    """
    sign = coerce(triple.space_qlp.signs[0])
    return sign * blk.right.z_scalar * compact_generator_scalar(triple)


def cubic_scalar(triple) -> ExactScalar:
    """Scalar action on the slice spinors of minus twice the cubic element."""
    elt = triple.pair_l_lh.cubic_element().scaled(coerce(-2))
    return _scalar_of(triple.spin_ql.gamma(elt))


def even_weight_cancellation(triple, module: WeightModule) -> dict:
    """Exact cancellation on the a-b = -2 eigenvalue line.

    Every admissible block on that line has compact-slice eigenvalue
    cancelled by the cubic scalar; such blocks exist precisely when the
    twist module has even weights.  Returns the block family found.
    """
    cub = cubic_scalar(triple)
    blocks = []
    for w in sorted(set(module.weights)):
        if w % 2 != 0:
            continue                      # a, b would not be integers
        a = (-w - 2) // 2                 # solve a+b = -w, a-b = -2
        b = a + 2
        blk = make_block(a, b)
        if not (block_eigenvalue(triple, blk) + cub).is_zero():
            raise SpectralError(
                f"cancellation fails on the block ({a},{b})")
        blocks.append(blk)
    has_even = any(w % 2 == 0 for w in module.weights)
    if bool(blocks) != has_even:
        raise SpectralError("block family does not match the weight parity")
    return {"blocks": blocks, "nonempty": bool(blocks),
            "even_weights": has_even}


# -- spin line naming and kernel lines ---------------------------------------


def grading_element(triple):
    """The vector of h cap k whose twist-module image is the Cartan generator.

    Torus weights of spin lines are measured against this element, so the
    naming is independent of any basis normalization inside the triple.
    x is built in h, so it lies in h cap k exactly when theta x = x.
    """
    if triple.h_module_map is None:
        raise SpectralError("the triple carries no h-module map")
    size = len(triple.h_module_map[0])
    target = unit_vector(size, 0)
    coords = solve_in_span([vec(img) for img in triple.h_module_map], [target])
    if coords is None:
        raise SpectralError("the twist map does not reach the Cartan line")
    x = vec_combination(coords.col(0), triple.h_basis, triple.algebra.dim)
    column = ExactMatrix.from_columns([x], triple.algebra.dim)
    if triple.theta @ column != column:
        raise SpectralError("the grading element is not in h cap k")
    return x


def _slot_names(spin: SpinModule, alpha_elt: CliffordElement,
                plus_name: str) -> dict:
    """Name each spin basis line by its gamma weight under a grading element.

    The action must be diagonal with eigenvalues exactly +1 and -1; the
    +1 line gets plus_name and the -1 line gets "1".
    """
    m = spin.gamma(alpha_elt)
    names = {}
    for i in range(spin.dim):
        for j in range(spin.dim):
            if i != j and not m[i, j].is_zero():
                raise SpectralError("grading action is not diagonal")
        if m[i, i] == ONE:
            names[i] = plus_name
        elif m[i, i] == -ONE:
            names[i] = "1"
        else:
            raise SpectralError(f"unexpected spin line weight {m[i, i]}")
    if sorted(names.values()) != sorted(["1", plus_name]):
        raise SpectralError("spin lines do not split into weights +1 and -1")
    return names


def hs_slot_names(triple) -> dict:
    """Names ("e"/"1") of the fixed-side spin lines, by computed weight."""
    x = grading_element(triple)
    return _slot_names(triple.spin_hs, triple.pair_h_hk.alpha(x), "e")


def ql_slot_names(triple) -> dict:
    """Names ("u"/"1") of the slice spin lines, by computed weight."""
    x = grading_element(triple)
    alpha = inject_element(triple.pair_l_lk.alpha(x), triple.space_ql)
    return _slot_names(triple.spin_ql, alpha, "u")


class KernelLine(NamedTuple):
    """One kernel line: its torus weight, spin line name, and module level."""

    total: int
    slot: str
    level: int


def _line_weight(name: str) -> int:
    """Torus weight of a named spin line: -1 on "1", +1 on "e" or "u"."""
    if name not in ("1", "e", "u"):
        raise SpectralError(f"unknown spin line {name!r}")
    return -1 if name == "1" else 1


def _kernel_lines(op: ExactMatrix, module: WeightModule, names: dict) -> list:
    """Kernel lines of an operator from the first levels of M (x) S (spin
    index fastest) to all of it.  It must keep the torus weight, module
    weight plus line weight, so each weight's columns form a block solved
    on its own, and every kernel vector must sit on one (level, line)."""
    spin_dim = len(names)
    weight = [w + _line_weight(names[s])
              for w in module.weights for s in range(spin_dim)]
    for (i, j), _ in op.items():
        if weight[i] != weight[j]:
            raise SpectralError(f"the operator carries torus weight "
                                f"{weight[j]} to {weight[i]}")
    by_total = defaultdict(list)
    for k in range(op.ncols):
        by_total[weight[k]].append(k)
    totals = sorted(by_total)
    blocks = op.column_blocks(by_total[t] for t in totals)
    lines = []
    for total, block in zip(totals, blocks):
        for nv in block.nullspace():
            support = [k for k in range(nv.nrows) if not nv[k, 0].is_zero()]
            if len(support) != 1:
                raise SpectralError("kernel line mixes module levels")
            level, s = divmod(by_total[total][support[0]], spin_dim)
            lines.append(KernelLine(total, names[s], level))
    return sorted(lines)


# -- the fixed-side Dirac operator and its kernel -----------------------------


def hs_dirac_operator(triple, module: WeightModule,
                      vectors=None, duals=None) -> ExactMatrix:
    """The residual Dirac operator on E (x) S for the pair (h, h cap k).

    By default the triple's orthonormal complement basis is used.  Any
    other presentation may be given as a basis of ambient vectors with a
    biorthogonal list of duals (omitted for an orthonormal basis); the
    resulting matrix is presentation independent.
    """
    pair = triple.pair_h_hk
    spin = triple.spin_hs
    if vectors is None:     # the duals of b_j with norm eps_j are eps_j b_j
        vectors = pair.complement_basis
        duals = [vec_scale(s, b) for s, b in zip(pair.space.signs, vectors)]
    vectors = [vec(v) for v in vectors]
    duals = vectors if duals is None else [vec(d) for d in duals]
    if len(vectors) != len(pair.complement_basis) or len(duals) != len(vectors):
        raise SpectralError("presentation does not have full size")
    g = triple.algebra
    g.check_lengths(*vectors, *duals)
    left, right = (ExactMatrix.from_columns(c, g.dim) for c in (vectors, duals))
    if left.transpose() @ g.form @ right != ExactMatrix.identity(len(vectors)):
        raise SpectralError("presentation is not biorthonormal")
    size = module.dim * spin.dim
    out = ExactMatrix.zeros(size, size)
    for beta, d in zip(beta_action(triple, module, vectors), duals):
        out = out + beta.kron(spin.gamma(pair.vector_element(d)))
    return out


def finite_dirac_kernel(triple, module: WeightModule) -> list:
    """Weight/line classification of the exact kernel on E (x) S: sorted
    pairs (twist weight, spin line name)."""
    lines = _kernel_lines(hs_dirac_operator(triple, module), module,
                          hs_slot_names(triple))
    return sorted((module.weights[l.level], l.slot) for l in lines)


# -- matched blocks -----------------------------------------------------------


def matched_kernel_blocks(triple, module: WeightModule, kernel: list):
    """The two blocks where the embedded operator reduces to the
    noncompact slice operator, for the twist module sl2_irrep(2m) and its
    finite_dirac_kernel lines: the blocks of its extreme weights 2m (on
    the slice "u" line) and -2m (on "1").

    Checks, exactly: both blocks sit on the cancelled a-b = -2 line; the
    fixed-side kernel pairs twist weight 2m with the +1 spin line and
    -2m with the -1 line (the "e" of the fixed side renames to the "u"
    of the slice side, both being the +1 line); and the residual term
    annihilates the corresponding lines of the slice fiber.
    """
    if module.kind != "finite" or module.weights[0] % 2:
        raise SpectralError(f"matched blocks need sl2_irrep(2m), not a "
                            f"{module.kind} module from weight {module.weights[0]}")
    m = module.weights[0] // 2
    blocks = (make_block(-m - 1, -m + 1, spin_ls="u"),
              make_block(m - 1, m + 1, spin_ls="1"))
    cub = cubic_scalar(triple)
    ql_names = ql_slot_names(triple)
    res = residual_term(triple, module).block(None)
    for blk in blocks:
        if blk.right.a - blk.right.b != -2:
            raise SpectralError("matched block is off the cancelled line")
        if not (block_eigenvalue(triple, blk) + cub).is_zero():
            raise SpectralError("compact part does not cancel on a block")
        slot_hs = "e" if blk.spin_ls == "u" else "1"
        if (blk.e_weight, slot_hs) not in kernel:
            raise SpectralError(
                f"fixed-side kernel misses ({blk.e_weight}, {slot_hs})")
        # the residual matrix must be zero on the block's spin (x) weight lines
        columns = [s * module.dim + i for s, n in ql_names.items()
                   if n == blk.spin_ls
                   for i, w in enumerate(module.weights) if w == blk.e_weight]
        if not res.select_columns(columns).is_zero():
            raise SpectralError(
                "residual term does not annihilate a matched line")
    return blocks


# -- the rank-one side and truncated kernels ----------------------------------


@cache
def single_side():
    """The rank-one pair, sl2 against its Cartan line, with spin data:
    (algebra, pair, spin, names, weights), where names and weights label
    the two spin lines by their computed grading weight."""
    g = sl2()
    h_v, e_v, f_v = (g.basis_vector(label) for label in "hef")
    # orthonormal complement: (e+f)/sqrt2 and i(e-f)/sqrt2
    x1 = vec_scale(INV_SQRT2, vec_add(e_v, f_v))
    x2 = vec_scale(I * INV_SQRT2, vec_add(e_v, vec_scale(-ONE, f_v)))
    pair = ReductivePair(g, [h_v], [x1, x2], ("P1", "P2"))
    spin = SpinModule(pair.space)
    names = _slot_names(spin, pair.alpha(h_v), "e")
    return g, pair, spin, names, {i: _line_weight(n) for i, n in names.items()}


def scan_module(kind: str, param: int, n_levels: int) -> WeightModule:
    """The member of the scan family over the rank-one algebra, built anew:
    "finite" ignores n_levels, "lowest"/"highest" are truncated."""
    if kind == "finite":
        return sl2_irrep(param)
    if kind == "lowest":
        return lowest_weight_module(param, n_levels)
    if kind == "highest":
        return highest_weight_module(param, n_levels)
    raise SpectralError(f"unknown module kind {kind!r}")


def _rank_one_operator(module: WeightModule, levels: int) -> ExactMatrix:
    """sum_k pi(x_k) (x) C_k, from the rank-one pair's rational spin-side
    symbol, on the first `levels` levels of M (x) S and all image rows."""
    g, pair, spin, _, _ = single_side()
    if module.algebra != g:
        raise SpectralError("module does not live over the rank-one algebra")
    symbol = algebraic_dirac(pair, lambda b: ExactMatrix([b]), spin)
    op = ExactMatrix.zeros(module.dim * spin.dim, levels * spin.dim)
    for k, action in enumerate(module.actions):
        c_k = symbol.select_columns(range(k * spin.dim, (k + 1) * spin.dim))
        if not c_k.is_zero():
            op = op + action.select_columns(range(levels)).kron(c_k)
    return op


def truncated_dirac_kernel(module: WeightModule) -> list:
    """Exact kernel lines of the rank-one Dirac operator on M (x) S, on the
    module's certified levels and all image rows: for the truncated kinds
    every reported line is a genuine kernel line of the untruncated one."""
    return _kernel_lines(_rank_one_operator(module, module.certified),
                         module, single_side()[3])


# -- parameter scans and the kernel table -------------------------------------


def certify_dirac_square() -> None:
    """Check that D^2 acts on each column of torus weight tau below the top
    level by (c^2 - tau^2)/4, with c = mu - 1 (lowest family, mu = 0 its
    one-dimensional member) or nu + 1 (highest); raise naming the column.

    Three members at levels 0..3 decide all: D^2 = sum pi(a)pi(b) (x) C_aC_b
    with constant C's, and each step of pi(a)pi(b) is a weight, the free
    step 1 or a ladder coefficient like j(nu - j + 1), of degree 1, 0 and
    (1, 2) in (parameter, level j).  A diagonal entry, a free step times a
    ladder coefficient or two weights, has degree <= (2, 2): levels 0..2
    fix it and level 3 guards.  The other entries of the column's torus
    weight, the only ones a kernel vector of that weight meets, lie on the
    other spin line one level away: a weight times at most one ladder
    coefficient, degree <= (2, 3).  Below the top level none depends on
    the truncation."""
    _, _, spin, names, line_weight = single_side()
    grid = [("lowest", p, lowest_weight_module(p, 4)) for p in (1, 2, 3)] + [
        ("highest", p, highest_weight_module(p, 4)) for p in (-1, -2, -3)]
    for kind, p, module in [("lowest", 0, sl2_irrep(0))] + grid:
        op = _rank_one_operator(module, module.dim)
        square, c = op @ op, p - 1 if kind == "lowest" else p + 1
        for k in range(module.certified * spin.dim):
            level, s = divmod(k, spin.dim)
            tau = module.weights[level] + line_weight[s]
            lam = coerce(Fraction(c * c - tau * tau, 4))
            if square.col(k) != tuple(lam if i == k else ZERO
                                      for i in range(square.nrows)):
                raise SpectralError(
                    f"D^2 is not (c^2 - tau^2)/4 on the {kind} family at "
                    f"parameter {p}, level {level}, spin line {names[s]!r}")


def scan_lines(kind: str, total: int, slot: str, n_levels: int) -> dict:
    """The members of a scan family, over all its integer parameters, whose
    kernel meets the line (total, slot), by parameter, with the lines met.
    The family "highest" has nu <= -1; "lowest" has mu >= 0, mu = 0 being
    the one-dimensional module (the honest irreducible quotient).  D^2 acts
    on the line by (c^2 - total^2)/4 (certify_dirac_square), so only nu =
    -1 +- total and mu = 1 +- total can meet it.  Each is solved at the
    level j whose module weight, mu + 2j or nu - 2j, is total less the line
    weight: unbuilt if j is not certified, else built to level j + 2, as
    levels j and j +- 1 reach only rows j - 2 .. j + 2, whose ladder
    coefficients do not depend on the truncation."""
    if kind not in ("highest", "lowest"):
        raise SpectralError(f"unknown scan family {kind!r}")
    shift = 1 if kind == "lowest" else -1        # c = parameter - shift
    weight, met = total - _line_weight(slot), {}
    for p in sorted({shift - total, shift + total}, key=lambda p: shift * p):
        k = kind if p else "finite"
        j, odd = divmod(weight - p, 2 * shift)
        if (p >= 0 if kind == "lowest" else p <= -1) and not odd \
                and 0 <= j < (n_levels if k != "finite" else p + 1):
            met[p] = [l for l in truncated_dirac_kernel(scan_module(
                k, p, min(n_levels, j + 2))) if l[:2] == (total, slot)]
    return {p: lines for p, lines in met.items() if lines}


def _dual_row(kind: str, param: int) -> list:
    """Name the dual of a scan hit: a highest weight module with parameter
    nu pairs with the lowest weight representation of weight -nu; the
    lowest weight family pairs with highest weight -mu, falling to the
    limit case at mu = 1 and the one-dimensional module at mu = 0."""
    if kind == "highest":
        n = -param
        if n < 2:
            raise SpectralError("scan hit outside the discrete range")
        return ["DS+", n]
    if param == 0:
        return ["Trivial", None]
    if param == 1:
        return ["LDS-", None]
    return ["DS-", -param]


def identification_scans(m: int, n_levels: int) -> list:
    """(family, scan_lines result) at n_levels levels, after
    certify_dirac_square, of the line each matched block of twist parameter
    m prescribes: the highest weight family at total -m-1 on "e" (the slice
    "u" of its block; both are the +1 line), then the lowest at m-1 on "1"."""
    certify_dirac_square()
    return [(kind, scan_lines(kind, total, slot, n_levels))
            for kind, total, slot in (("highest", -m - 1, "e"),
                                      ("lowest", m - 1, "1"))]


def table_rows(blocks, scans) -> list:
    """Rows [kind, parameter, "C", character] of the kernel identification,
    from the matched blocks and their identification_scans read pairwise:
    the unique member a scan meets names the first factor, the block's
    second right-label coordinate the character."""
    rows = []
    for blk, (kind, met) in zip(blocks, scans, strict=True):
        if len(met) != 1:
            raise SpectralError(
                f"scan for total {blk.right.a} found {len(met)} members")
        rows.append(_dual_row(kind, *met) + ["C", -blk.right.b])
    return rows


def kernel_table(triple, m: int) -> list:
    """The kernel identification table for a twist module of highest
    weight 2m: table_rows of the matched blocks of sl2_irrep(2m) and its
    fixed-side kernel, identified by scans at 40 levels."""
    module = sl2_irrep(2 * m)
    blocks = matched_kernel_blocks(triple, module,
                                   finite_dirac_kernel(triple, module))
    return table_rows(blocks, identification_scans(m, 40))
